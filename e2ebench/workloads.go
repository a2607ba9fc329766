package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"slmem/internal/load"
	"slmem/internal/registry"
)

// workload is one traffic mix: the server shape it runs against and the
// traffic generator it drives it with.
type workload struct {
	name string
	// procs is the server's pid-pool size (registry.Options.Procs).
	procs int
	// opsPerCall is the number of operations one HTTP call carries.
	opsPerCall int
	keys       load.KeySpec
	// newTraffic precomputes every request the workload can send, for one
	// seed; traced requests address the tracing drivers' kinds.
	newTraffic func(seed int64, traced bool) traffic
}

// traffic generates a workload's requests and checks the server's state
// against the acknowledged operations. Request bytes are precomputed per key
// so client-side encoding does not compete with the server for the CPUs.
type traffic interface {
	// objects returns one batch entry per object the workload names, as
	// the first request naming it would create it.
	objects() []registry.BatchOp
	// request appends the body of the call over keys to dst and returns the
	// URL path and a variant that ack needs to tell calls over the same keys
	// apart. A nonzero id is written into the body as the trace tag.
	request(dst []byte, keys []int, id uint64) (path string, body []byte, variant int)
	// ack records that the call over keys succeeded.
	ack(keys []int, variant int)
	// check reads the objects back through the server and returns one
	// message per failed check.
	check(ctx context.Context, c *client) []string
}

var workloads = []workload{
	{
		name: "counter-http", procs: 16, opsPerCall: 1,
		keys:       load.KeySpec{Dist: load.DistUniform, Keys: counterNames},
		newTraffic: newCounterTraffic,
	},
	{
		name: "batch-mixed", procs: 16, opsPerCall: batchOps,
		keys:       load.KeySpec{Dist: load.DistZipf, Keys: batchNames, ZipfS: 1.1},
		newTraffic: newBatchTraffic,
	},
	{
		// One pid: with two or more the universal object degrades, since a
		// pid's first operation re-extracts the live nodes (see DESIGN.md).
		// Both connections queue on the lease instead.
		name: "object-http", procs: 1, opsPerCall: 1,
		keys:       load.KeySpec{Dist: load.DistUniform, Keys: objectNames},
		newTraffic: newObjectTraffic,
	},
}

const (
	counterNames = 1024
	batchNames   = 1024
	batchOps     = 64
	objectNames  = 16
	// readEvery is the period of an object's operation sequence: every
	// readEvery-th operation on an object is read(), the rest addTo(1). A
	// fixed period, rather than a random choice per call, gives every
	// collector pass the same mix to linearize, whose cost depends on it.
	readEvery = 8
	// valueVariants is how many distinct operands each maxreg, snapshot and
	// bag name is written with.
	valueVariants = 4
)

// tagged is a precomputed JSON object split around the trace tag: the body
// is pre, the decimal trace id, then post. Untraced encodings have no post
// and never take an id.
type tagged struct{ pre, post []byte }

func (t tagged) append(dst []byte, id uint64) []byte {
	dst = append(dst, t.pre...)
	if id != 0 {
		dst = strconv.AppendUint(dst, id, 10)
	}
	return append(dst, t.post...)
}

// encode builds the JSON object with the lead fields (already encoded, may
// be empty) followed by value, type and invocation where set. The traced
// encoding always carries a type field "<id>|<type>", which the tracing
// drivers strip before the builtin driver sees the request. Every string is
// plain ASCII, so no escaping is needed.
func encode(lead, value, typ, inv string, traced bool) tagged {
	b := "{" + lead
	field := func(k, v string) {
		if len(b) > 1 {
			b += ","
		}
		b += `"` + k + `":"` + v + `"`
	}
	if value != "" {
		field("value", value)
	}
	rest := ""
	if inv != "" {
		rest = `,"invocation":"` + inv + `"`
	}
	if !traced {
		if typ != "" {
			field("type", typ)
		}
		b += rest + "}"
		if b == "{}" {
			return tagged{} // operandless ops are sent without a body
		}
		return tagged{pre: []byte(b)}
	}
	field("type", "")
	b = b[:len(b)-1] // reopen the type string for the id
	return tagged{pre: []byte(b), post: []byte("|" + typ + `"` + rest + "}")}
}

// kindName is the kind a request addresses: the builtin one, or its
// tracing driver's.
func kindName(k string, traced bool) string {
	if traced {
		return tracePrefix + k
	}
	return k
}

func entryLead(kind, name, op string) string {
	return `"kind":"` + kind + `","name":"` + name + `","op":"` + op + `"`
}

// --- counter-http ------------------------------------------------------------

type counterTraffic struct {
	kind  string
	names []string
	paths []string
	body  tagged
	incs  []atomic.Int64
}

func newCounterTraffic(_ int64, traced bool) traffic {
	t := &counterTraffic{kind: kindName("counter", traced), body: encode("", "", "", "", traced)}
	t.incs = make([]atomic.Int64, counterNames)
	for i := 0; i < counterNames; i++ {
		name := fmt.Sprintf("c%04d", i)
		t.names = append(t.names, name)
		t.paths = append(t.paths, "/v1/"+t.kind+"/"+name+"/inc")
	}
	return t
}

func (t *counterTraffic) objects() []registry.BatchOp {
	return readEntries(t.kind, t.names, "read", "", "")
}

func (t *counterTraffic) request(dst []byte, keys []int, id uint64) (string, []byte, int) {
	return t.paths[keys[0]], t.body.append(dst, id), 0
}

func (t *counterTraffic) ack(keys []int, _ int) { t.incs[keys[0]].Add(1) }

func (t *counterTraffic) check(ctx context.Context, c *client) []string {
	vals, err := c.readAll(ctx, readEntries(t.kind, t.names, "read", "", ""))
	if err != nil {
		return []string{"counter read-back: " + err.Error()}
	}
	var bad []string
	for i, v := range vals {
		if want := strconv.FormatInt(t.incs[i].Load(), 10); v.Value != want {
			bad = append(bad, fmt.Sprintf("counter %s reads %q, want %s acknowledged incs", t.names[i], v.Value, want))
		}
	}
	return bad
}

// readEntries returns one batch entry per name.
func readEntries(kind string, names []string, op, typ, inv string) []registry.BatchOp {
	ops := make([]registry.BatchOp, len(names))
	for i, n := range names {
		ops[i] = registry.BatchOp{Kind: registry.Kind(kind), Name: n, Op: registry.Op(op), Type: typ, Invocation: inv}
	}
	return ops
}

// --- batch-mixed -------------------------------------------------------------

// The eight entry shapes of batch-mixed, eight of each per batch.
const (
	bCounterInc = iota
	bCounterRead
	bMaxregWrite
	bMaxregRead
	bSnapUpdate
	bSnapScan
	bBagInsert
	bBagRemove
	bShapes
)

type batchTraffic struct {
	kinds [4]string // counter, maxreg, snapshot, bag
	names []string
	// layout[j] is the shape of entry j, a seeded shuffle.
	layout [batchOps]int
	// entries[shape][key*valueVariants+variant]; entry j uses variant
	// j%valueVariants.
	entries  [bShapes][]tagged
	maxVals  [][valueVariants]uint64
	snapVals [][valueVariants]string

	incs      []atomic.Int64
	maxWrote  []atomic.Uint32 // bit v: variant v acknowledged
	snapWrote []atomic.Uint32
	inserts   []atomic.Int64
	removes   []atomic.Int64
}

func newBatchTraffic(seed int64, traced bool) traffic {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	t := &batchTraffic{
		kinds:     [4]string{kindName("counter", traced), kindName("maxreg", traced), kindName("snapshot", traced), kindName("bag", traced)},
		maxVals:   make([][valueVariants]uint64, batchNames),
		snapVals:  make([][valueVariants]string, batchNames),
		incs:      make([]atomic.Int64, batchNames),
		maxWrote:  make([]atomic.Uint32, batchNames),
		snapWrote: make([]atomic.Uint32, batchNames),
		inserts:   make([]atomic.Int64, batchNames),
		removes:   make([]atomic.Int64, batchNames),
	}
	for j := range t.layout {
		t.layout[j] = j % bShapes
	}
	rng.Shuffle(len(t.layout), func(i, j int) { t.layout[i], t.layout[j] = t.layout[j], t.layout[i] })
	for k := 0; k < batchNames; k++ {
		t.names = append(t.names, fmt.Sprintf("n%04d", k))
		for v := 0; v < valueVariants; v++ {
			t.maxVals[k][v] = uint64(rng.Int63n(1 << 40))
			t.snapVals[k][v] = fmt.Sprintf("s%d-%d", k, rng.Intn(1e6))
		}
	}
	for s := 0; s < bShapes; s++ {
		t.entries[s] = make([]tagged, batchNames*valueVariants)
		for k, name := range t.names {
			for v := 0; v < valueVariants; v++ {
				var e tagged
				switch s {
				case bCounterInc:
					e = encode(entryLead(t.kinds[0], name, "inc"), "", "", "", traced)
				case bCounterRead:
					e = encode(entryLead(t.kinds[0], name, "read"), "", "", "", traced)
				case bMaxregWrite:
					e = encode(entryLead(t.kinds[1], name, "write"), strconv.FormatUint(t.maxVals[k][v], 10), "", "", traced)
				case bMaxregRead:
					e = encode(entryLead(t.kinds[1], name, "read"), "", "", "", traced)
				case bSnapUpdate:
					e = encode(entryLead(t.kinds[2], name, "update"), t.snapVals[k][v], "", "", traced)
				case bSnapScan:
					e = encode(entryLead(t.kinds[2], name, "scan"), "", "", "", traced)
				case bBagInsert:
					e = encode(entryLead(t.kinds[3], name, "insert"), fmt.Sprintf("b%d-%d", k, v), "", "", traced)
				case bBagRemove:
					e = encode(entryLead(t.kinds[3], name, "remove"), "", "", "", traced)
				}
				t.entries[s][k*valueVariants+v] = e
			}
		}
	}
	return t
}

func (t *batchTraffic) objects() []registry.BatchOp {
	var ops []registry.BatchOp
	ops = append(ops, readEntries(t.kinds[0], t.names, "read", "", "")...)
	ops = append(ops, readEntries(t.kinds[1], t.names, "read", "", "")...)
	ops = append(ops, readEntries(t.kinds[2], t.names, "scan", "", "")...)
	return append(ops, readEntries(t.kinds[3], t.names, "size", "", "")...)
}

func (t *batchTraffic) request(dst []byte, keys []int, id uint64) (string, []byte, int) {
	dst = append(dst, '[')
	for j, k := range keys {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = t.entries[t.layout[j]][k*valueVariants+j%valueVariants].append(dst, id)
	}
	return "/v1/batch", append(dst, ']'), 0
}

func (t *batchTraffic) ack(keys []int, _ int) {
	for j, k := range keys {
		v := j % valueVariants
		switch t.layout[j] {
		case bCounterInc:
			t.incs[k].Add(1)
		case bMaxregWrite:
			t.maxWrote[k].Or(1 << v)
		case bSnapUpdate:
			t.snapWrote[k].Or(1 << v)
		case bBagInsert:
			t.inserts[k].Add(1)
		case bBagRemove:
			t.removes[k].Add(1)
		}
	}
}

// check requires each counter to equal its acknowledged incs, each maxreg
// to hold the largest acknowledged write, every snapshot component to be a
// value some acknowledged update wrote, and each bag's size to lie between
// inserts minus removes and inserts.
func (t *batchTraffic) check(ctx context.Context, c *client) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	counters, err := c.readAll(ctx, readEntries(t.kinds[0], t.names, "read", "", ""))
	if err != nil {
		return []string{"counter read-back: " + err.Error()}
	}
	maxregs, err := c.readAll(ctx, readEntries(t.kinds[1], t.names, "read", "", ""))
	if err != nil {
		return []string{"maxreg read-back: " + err.Error()}
	}
	snaps, err := c.readAll(ctx, readEntries(t.kinds[2], t.names, "scan", "", ""))
	if err != nil {
		return []string{"snapshot read-back: " + err.Error()}
	}
	sizes, err := c.readAll(ctx, readEntries(t.kinds[3], t.names, "size", "", ""))
	if err != nil {
		return []string{"bag read-back: " + err.Error()}
	}
	for k, name := range t.names {
		if want := strconv.FormatInt(t.incs[k].Load(), 10); counters[k].Value != want {
			fail("counter %s reads %q, want %s acknowledged incs", name, counters[k].Value, want)
		}
		var want uint64
		for v := 0; v < valueVariants; v++ {
			if t.maxWrote[k].Load()&(1<<v) != 0 && t.maxVals[k][v] > want {
				want = t.maxVals[k][v]
			}
		}
		if got := strconv.FormatUint(want, 10); maxregs[k].Value != got {
			fail("maxreg %s reads %q, want %s", name, maxregs[k].Value, got)
		}
		for _, comp := range snaps[k].View {
			ok := comp == ""
			for v := 0; v < valueVariants && !ok; v++ {
				ok = t.snapWrote[k].Load()&(1<<v) != 0 && comp == t.snapVals[k][v]
			}
			if !ok {
				fail("snapshot %s holds %q, which no acknowledged update wrote", name, comp)
			}
		}
		size, err := strconv.ParseInt(sizes[k].Value, 10, 64)
		ins, rem := t.inserts[k].Load(), t.removes[k].Load()
		if err != nil || size > ins || size < ins-rem {
			fail("bag %s has size %q, want between %d and %d", name, sizes[k].Value, max(ins-rem, 0), ins)
		}
	}
	return bad
}

// --- object-http -------------------------------------------------------------

type objectTraffic struct {
	kind  string
	names []string
	paths []string
	add   tagged
	read  tagged
	seq   []atomic.Uint64 // operations issued per object
	adds  []atomic.Int64  // acknowledged addTo(1) per object
}

// Variants of an object-http call.
const (
	opAdd = iota
	opRead
)

func newObjectTraffic(_ int64, traced bool) traffic {
	t := &objectTraffic{
		kind: kindName("object", traced),
		add:  encode("", "", "accumulator", "addTo(1)", traced),
		read: encode("", "", "accumulator", "read()", traced),
		seq:  make([]atomic.Uint64, objectNames),
		adds: make([]atomic.Int64, objectNames),
	}
	for i := 0; i < objectNames; i++ {
		name := fmt.Sprintf("o%02d", i)
		t.names = append(t.names, name)
		t.paths = append(t.paths, "/v1/"+t.kind+"/"+name+"/execute")
	}
	return t
}

func (t *objectTraffic) objects() []registry.BatchOp {
	return readEntries(t.kind, t.names, "execute", "accumulator", "read()")
}

func (t *objectTraffic) request(dst []byte, keys []int, id uint64) (string, []byte, int) {
	o := keys[0]
	if t.seq[o].Add(1)%readEvery == 0 {
		return t.paths[o], t.read.append(dst, id), opRead
	}
	return t.paths[o], t.add.append(dst, id), opAdd
}

func (t *objectTraffic) ack(keys []int, variant int) {
	if variant == opAdd {
		t.adds[keys[0]].Add(1)
	}
}

func (t *objectTraffic) check(ctx context.Context, c *client) []string {
	vals, err := c.readAll(ctx, t.objects())
	if err != nil {
		return []string{"accumulator read-back: " + err.Error()}
	}
	var bad []string
	for i, v := range vals {
		if want := strconv.FormatInt(t.adds[i].Load(), 10); v.Value != want {
			bad = append(bad, fmt.Sprintf("accumulator %s reads %q, want %s acknowledged addTo(1)", t.names[i], v.Value, want))
		}
	}
	return bad
}
