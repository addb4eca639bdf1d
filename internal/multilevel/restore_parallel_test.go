package multilevel

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sealChain writes epochs 1..n straight through the hierarchy's streaming
// L1 path: each epoch dirties an overlapping window of pages so the fold
// order matters (newest epoch must win on every overlap).
func sealChain(t *testing.T, h *Hierarchy, n int) {
	t.Helper()
	for e := 1; e <= n; e++ {
		base := (e % 4) * 4
		for p := base; p < base+8; p++ {
			data := pageFill(p, e)
			if err := h.WritePage(uint64(e), p, data, len(data)); err != nil {
				t.Fatalf("write epoch %d page %d: %v", e, p, err)
			}
		}
		if err := h.EndEpoch(uint64(e)); err != nil {
			t.Fatalf("seal epoch %d: %v", e, err)
		}
	}
}

// checkChainImage asserts im holds exactly what sealChain wrote through
// epoch last: that restart epoch, and for every page the content of its
// newest writer. The oracle is the writer itself, independent of the
// restore path under test.
func checkChainImage(t *testing.T, label string, im *ckpt.Image, last int) {
	t.Helper()
	if im.Epoch != uint64(last) {
		t.Fatalf("%s: restart epoch = %d, want %d", label, im.Epoch, last)
	}
	want := 0
	for p := 0; p < 20; p++ {
		e := newestWriter(p, last)
		if e == 0 {
			continue
		}
		want++
		if !bytes.Equal(im.Pages[p], pageFill(p, e)) {
			t.Fatalf("%s: page %d differs from epoch %d's write", label, p, e)
		}
	}
	if len(im.Pages) != want {
		t.Fatalf("%s: %d pages restored, want %d", label, len(im.Pages), want)
	}
}

// checkSteps asserts one step per epoch 1..len(steps), each served by tier
// (an empty tier marks the unrecoverable epoch that ends the chain).
func checkSteps(t *testing.T, label string, steps []RestoreStep, tiers ...string) {
	t.Helper()
	if len(steps) != len(tiers) {
		t.Fatalf("%s: %d steps, want %d: %+v", label, len(steps), len(tiers), steps)
	}
	for i, st := range steps {
		if st.Epoch != uint64(i+1) || st.Tier != tiers[i] {
			t.Fatalf("%s: step %d = %+v, want epoch %d from %q", label, i, st, i+1, tiers[i])
		}
	}
}

// repeat returns n copies of s.
func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestRestorePipelinedMatchesSerial seals a wide chain under the
// virtual-time kernel and restores it at several loader counts in three
// damage states: intact (everything served by L1), L1 wiped (erasure
// reconstruction from the peers), and L1 wiped plus one failed peer node
// (degraded reconstruction). Every width must restore exactly the content
// written, with the expected per-epoch sources, and every width must
// report identical steps. The hierarchy carries no Metrics, so this is
// also the nil-obs regression test for the restore path.
func TestRestorePipelinedMatchesSerial(t *testing.T) {
	const epochs = 10
	k := sim.NewKernel()
	h, peer, _ := testHierarchy(t, k, 3)
	k.Go("app", func() {
		sealChain(t, h, epochs)
		h.WaitDrained()
		if err := h.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		check := func(label, tier string) {
			var first []RestoreStep
			for _, workers := range []int{1, 2, 4, 8} {
				l := fmt.Sprintf("%s/workers=%d", label, workers)
				im, steps, err := h.RestoreWith(RestoreOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", l, err)
				}
				checkChainImage(t, l, im, epochs)
				checkSteps(t, l, steps, repeat(tier, epochs)...)
				if first == nil {
					first = steps
				} else if !reflect.DeepEqual(first, steps) {
					t.Fatalf("%s: steps differ across widths:\n%+v\n%+v", l, first, steps)
				}
			}
		}

		check("intact", "local")
		if err := h.Local().Wipe(); err != nil {
			t.Fatal(err)
		}
		check("l1-wiped", "peer")
		peer.Nodes()[1].Fail()
		check("l1-wiped+peer-degraded", "peer")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRestorePipelinedSpansMatchSerial runs a 4-loader restore with a
// flight recorder attached: it must emit exactly one restore span per
// epoch, attributed to the tier its step names. Span *timestamps* may
// interleave (loads overlap by design), but attribution is part of the
// restore contract and must not depend on the width.
func TestRestorePipelinedSpansMatchSerial(t *testing.T) {
	k := sim.NewKernel()
	met := obs.New(k.Now)
	met.Spans = obs.NewSpanLog(128)
	h, _, _ := metricsHierarchy(t, k, 2, met)
	k.Go("app", func() {
		sealChain(t, h, 8)
		h.WaitDrained()
		if err := h.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := h.Local().Wipe(); err != nil {
			t.Fatal(err)
		}
		before := len(met.Spans.Snapshot())
		im, steps, err := h.RestoreWith(RestoreOptions{Workers: 4})
		if err != nil {
			t.Fatalf("pipelined restore: %v", err)
		}
		checkSteps(t, "pipelined", steps, repeat("peer", 8)...)
		byEpoch := map[uint64]obs.Span{}
		for _, s := range met.Spans.Snapshot()[before:] {
			if s.Kind == obs.SpanRestore {
				byEpoch[s.Epoch] = s
			}
		}
		if len(byEpoch) != len(steps) {
			t.Fatalf("got %d restore spans, want one per step (%d)", len(byEpoch), len(steps))
		}
		for _, st := range steps {
			s, ok := byEpoch[st.Epoch]
			if !ok {
				t.Fatalf("no restore span for epoch %d", st.Epoch)
			}
			if s.Tier != 1 {
				t.Errorf("epoch %d span attributed to tier %d, want 1 (peer)", st.Epoch, s.Tier)
			}
			if s.Dur() < 0 {
				t.Errorf("epoch %d span has negative duration", st.Epoch)
			}
		}
		checkChainImage(t, "pipelined", im, 8)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// cutoffTier serves only epochs below cutoff, simulating a lower tier
// that lost the tail of the chain.
type cutoffTier struct {
	Tier
	cutoff uint64
}

func (c *cutoffTier) Load(epoch uint64) (*EpochData, error) {
	if epoch >= c.cutoff {
		return nil, errors.New("cutoff: epoch lost")
	}
	return c.Tier.Load(epoch)
}

// TestRestorePipelinedStopsAtIntactPrefix breaks the chain mid-way (L1
// wiped, the only lower tier lost epochs >= 5): every width must fold
// exactly the intact prefix 1..4, report epoch 5 as the unrecoverable last
// step, and discard in-flight loads past the break without folding them.
func TestRestorePipelinedStopsAtIntactPrefix(t *testing.T) {
	env := sim.NewRealEnv()
	local := NewLocalTier(env, "local", &ckpt.MemFS{}, pageSize, nil)
	backing := NewLocalTier(env, "lower", &ckpt.MemFS{}, pageSize, nil)
	h, err := New(Config{
		Env: env, PageSize: pageSize, Local: local,
		Lower: []Tier{&cutoffTier{Tier: backing, cutoff: 5}},
		Drain: DrainPolicy{RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sealChain(t, h, 8)
	h.WaitDrained()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := local.Wipe(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		label := fmt.Sprintf("prefix/workers=%d", workers)
		im, steps, err := h.RestoreWith(RestoreOptions{Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkChainImage(t, label, im, 4)
		checkSteps(t, label, steps, "lower", "lower", "lower", "lower", "")
	}
}

// realEnvHierarchy builds a timing-free 2-tier hierarchy under the real
// clock for race tests.
func realEnvHierarchy(t *testing.T) (*Hierarchy, *LocalTier) {
	t.Helper()
	env := sim.NewRealEnv()
	local := NewLocalTier(env, "local", &ckpt.MemFS{}, pageSize, nil)
	nodes := make([]*PeerNode, 3)
	for i := range nodes {
		nodes[i] = NewPeerNode(fmt.Sprintf("peer%d", i), nil)
	}
	peer, err := NewPeerTier("peer", 2, 1, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{
		Env: env, PageSize: pageSize, Local: local, Lower: []Tier{peer},
		Drain: DrainPolicy{Workers: 2, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, local
}

// TestRestoreConcurrentWithDrain starts pipelined restores while the
// background drainer is still promoting epochs to the peer tier. Restores
// read the sealed chain off L1 while the drainer loads the same epochs
// and stores shards — the race detector checks the shared structures
// (MemFS, repository, peer stores, manifests) stay properly guarded.
func TestRestoreConcurrentWithDrain(t *testing.T) {
	h, _ := realEnvHierarchy(t)
	sealChain(t, h, 8)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			im, _, err := h.RestoreWith(RestoreOptions{Workers: 4})
			if err != nil {
				t.Errorf("restore during drain: %v", err)
				return
			}
			if im.Epoch != 8 {
				t.Errorf("restore during drain folded to epoch %d, want 8", im.Epoch)
			}
		}()
	}
	wg.Wait()
	h.WaitDrained()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreConcurrentWithScrub runs a pipelined restore concurrently
// with a scrub pass over the same chain: scrub verification is read-only
// and repairs publish atomically, so both must succeed and the restored
// image must be complete.
func TestRestoreConcurrentWithScrub(t *testing.T) {
	h, _ := realEnvHierarchy(t)
	sealChain(t, h, 8)
	h.WaitDrained()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rep, err := h.Scrub()
		if err != nil {
			t.Errorf("scrub during restore: %v", err)
			return
		}
		if rep.Corrupt != 0 {
			t.Errorf("scrub found %d corrupt entries on a healthy chain", rep.Corrupt)
		}
	}()
	go func() {
		defer wg.Done()
		im, _, err := h.RestoreWith(RestoreOptions{Workers: 4})
		if err != nil {
			t.Errorf("restore during scrub: %v", err)
			return
		}
		for e := 1; e <= 8; e++ {
			base := (e % 4) * 4
			for p := base; p < base+8; p++ {
				// Later epochs overwrite overlapping windows; only check
				// pages whose newest writer is epoch e.
				if newestWriter(p, 8) == e && !bytes.Equal(im.PageOr(p), pageFill(p, e)) {
					t.Errorf("page %d differs after restore concurrent with scrub", p)
				}
			}
		}
	}()
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// newestWriter returns the highest epoch <= n whose sealChain window
// covers page p (0 if none).
func newestWriter(p, n int) int {
	for e := n; e >= 1; e-- {
		base := (e % 4) * 4
		if p >= base && p < base+8 {
			return e
		}
	}
	return 0
}
