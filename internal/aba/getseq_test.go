package aba

import (
	"fmt"
	"math/rand"
	"testing"

	"slmem/internal/memory"
)

// contains reports whether s is among the queue's recent numbers.
func (q *seqQueue) contains(s int) bool {
	for _, v := range q.buf {
		if v == s {
			return true
		}
	}
	return false
}

// refGetSeq is GetSeq's line 11 as it was first written: try each candidate
// in {0,...,2n+1} in order against every used and every announced number.
// O(n²), and obviously the smallest free number; freeSeq must agree.
func refGetSeq(used, na []int, n int) int {
	for cand := 0; cand <= 2*n+1; cand++ {
		taken := false
		for _, v := range used {
			if v == cand {
				taken = true
				break
			}
		}
		for _, v := range na {
			if v == cand {
				taken = true
				break
			}
		}
		if !taken {
			return cand
		}
	}
	panic("aba: no available sequence number")
}

// randSeqState draws a GetSeq local state for n processes: n+1 used and n
// announced numbers, each ⊥ or in {0,...,2n+1}. Dense draws (few ⊥, numbers
// packed low) make the lowest free number land anywhere in the domain,
// including past bit 63 once 2n+2 > 64.
func randSeqState(rng *rand.Rand, n int) (used, na []int) {
	pick := func() int {
		if rng.Intn(8) == 0 {
			return noSeq
		}
		return rng.Intn(2*n + 2)
	}
	used = make([]int, n+1)
	na = make([]int, n)
	if rng.Intn(2) == 0 {
		// A permutation prefix fills 2n+1 distinct numbers, leaving exactly
		// one free: the hardest case for both versions.
		perm := rng.Perm(2*n + 2)
		copy(used, perm[:n+1])
		copy(na, perm[n+1:2*n+1])
		return used, na
	}
	for i := range used {
		used[i] = pick()
	}
	for i := range na {
		na[i] = pick()
	}
	return used, na
}

// TestFreeSeqMatchesReference checks the bitmask GetSeq against the nested
// loop on random (usedQ, na) states for n = 1..40, which puts the domain
// {0,...,2n+1} on both sides of one 64-bit mask word.
func TestFreeSeqMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		w := newWriterLocal(n)
		for trial := 0; trial < 500; trial++ {
			used, na := randSeqState(rng, n)
			want := refGetSeq(used, na, n)
			if got := freeSeq(used, na, w.mask, n); got != want {
				t.Fatalf("n=%d used=%v na=%v: freeSeq = %d, reference = %d", n, used, na, got, want)
			}
		}
	}
}

// TestGetSeqMatchesReference drives the full getSeq (announcement read,
// cursor, usedQ ring) of one writer against a replay of the same state
// through the reference, while readers announce the writer's numbers.
func TestGetSeqMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 31, 32, 33} {
		var alloc memory.NativeAllocator
		reg := NewStrong[int](&alloc, n, 0)
		rng := rand.New(rand.NewSource(int64(n)))
		const writer = 0
		for i := 0; i < 20*n; i++ {
			if rng.Intn(2) == 0 {
				reg.DRead(rng.Intn(n)) // announce the current tag somewhere
			}
			l := &reg.w[writer]
			var used, na []int
			c := 0
			if l.usedQ != nil {
				used = append([]int(nil), l.usedQ.buf...)
				na = append([]int(nil), l.na...)
				c = l.c
			} else {
				used, na = make([]int, n+1), make([]int, n)
				for j := range used {
					used[j] = noSeq
				}
				for j := range na {
					na[j] = noSeq
				}
			}
			ann := reg.a[c].Read(writer)
			if ann.pid() == writer {
				na[c] = ann.seq()
			} else {
				na[c] = noSeq
			}
			want := refGetSeq(used, na, n)
			reg.DWrite(writer, i)
			if got := reg.x.Read(writer).seq; got != want {
				t.Fatalf("n=%d write %d: getSeq picked %d, reference %d", n, i, got, want)
			}
		}
	}
}

// TestTagWordRoundTrip checks the packed (pid, seq) word over the whole
// announcement domain: ⊥ (−1, −1), every pid up to n−1 and every seq up to
// 2n+1, and that distinct pairs pack to distinct words.
func TestTagWordRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 16, 33, 1 << 12} {
		seen := make(map[tag][2]int)
		check := func(pid, seq int) {
			w := packTag(pid, seq)
			if w.pid() != pid || w.seq() != seq {
				t.Fatalf("n=%d: pack(%d,%d) unpacks to (%d,%d)", n, pid, seq, w.pid(), w.seq())
			}
			if prev, dup := seen[w]; dup {
				t.Fatalf("n=%d: (%d,%d) and %v pack to the same word %#x", n, pid, seq, prev, uint64(w))
			}
			seen[w] = [2]int{pid, seq}
		}
		check(noSeq, noSeq)
		if packTag(noSeq, noSeq) != 0 {
			t.Errorf("⊥ packs to %#x, want 0", uint64(packTag(noSeq, noSeq)))
		}
		pids := []int{0, n / 2, n - 1}
		seqs := []int{0, 1, n, 2*n + 1}
		if n <= 33 {
			pids, seqs = nil, nil
			for p := 0; p < n; p++ {
				pids = append(pids, p)
			}
			for s := 0; s <= 2*n+1; s++ {
				seqs = append(seqs, s)
			}
		}
		for _, p := range pids {
			for _, s := range seqs {
				check(p, s)
			}
		}
		if got, want := packTag(n-1, 2*n+1).String(), fmt.Sprintf("%v", struct{ pid, seq int }{n - 1, 2*n + 1}); got != want {
			t.Errorf("n=%d: String = %q, want %q (the unpacked struct's %%v)", n, got, want)
		}
	}
	if got := packTag(noSeq, noSeq).String(); got != "{-1 -1}" {
		t.Errorf("⊥ String = %q, want {-1 -1} (the unpacked struct's %%v)", got)
	}
}
