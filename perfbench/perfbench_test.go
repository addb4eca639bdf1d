package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/ckpt"
)

// TestGateCatchesPlantedFault runs the benchmark with a segment truncated
// before every closing restore: it must exit 1, report the failures in its
// result line and name what failed.
func TestGateCatchesPlantedFault(t *testing.T) {
	var out, errOut bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"-workload", "restart", "-seed", "3", "-seconds", "0.01", "-plant", "truncate-segment",
		"-work", filepath.Join(dir, "work"), "-spans", filepath.Join(dir, "spans")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Failed == 0 || res.Attempted <= res.Failed {
		t.Fatalf("planted fault not counted: %+v", res)
	}
	if !strings.Contains(out.String(), "check: FAILED: restore") {
		t.Fatalf("no failed restore named in the output:\n%s", out.String())
	}
}

// TestVerifyNamesFirstBadPage checks the bit-for-bit comparison itself.
func TestVerifyNamesFirstBadPage(t *testing.T) {
	state := make([]byte, 4*pageSize)
	restored := append([]byte(nil), state...)
	restored[2*pageSize+100] ^= 1
	restored[3*pageSize] ^= 1
	err := verify(state, func(p int) []byte { return restored[p*pageSize : (p+1)*pageSize] })
	if err == nil || !strings.Contains(err.Error(), "page 2 ") || !strings.Contains(err.Error(), "offset 100") {
		t.Fatalf("verify = %v, want page 2 at offset 100", err)
	}
}

// TestCountsRepeat runs every workload's round twice untraced and once
// traced with one seed: the timing-independent counts, and on the tiered
// workload the tier manifests and per-epoch restore sources, must be
// identical, so the seed fixes the inputs and the tracing wrappers change
// nothing the program does.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			clk, tr := newClock(), &tracer{}
			var rounds []*round
			for i, kind := range []roundKind{untraced, untraced, traced} {
				r, err := runRound(w, kind, 7, filepath.Join(t.TempDir(), string(rune('a'+i))), clk, tr, plantNone)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 {
					t.Fatalf("round %d failed: %v", i, r.problems)
				}
				rounds = append(rounds, r)
			}
			if p := checkRepeat(rounds); len(p) > 0 {
				t.Fatal(p)
			}
			if rounds[0].counts.DirtyBytes == 0 || len(rounds[0].counts.EpochPages) != 1+w.steps/w.every {
				t.Fatalf("implausible counts %+v", rounds[0].counts)
			}
			if w.tiered && rounds[0].sources == "" {
				t.Fatal("tier sources not recorded")
			}
			if len(tr.snapshot()) == 0 {
				t.Fatal("traced round recorded no spans")
			}
		})
	}
}

// TestAssemblyParity drives each workload's application once through the
// bench's Options.Store stack and once through a runtime built by
// Options.Dir or Options.Tiers: both must write the same chain (per-epoch
// page sets, content hashes, dedup references, codec and sizes), place
// every epoch on the same tiers with the same shard layout, and commit with
// the same number of workers.
func TestAssemblyParity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Background compaction folds epochs at timing-dependent points;
			// the chains are compared before any fold.
			plain := *w
			plain.policy = aickpt.CompactionPolicy{}
			dir := t.TempDir()
			clk := newClock()

			var st *stack
			var err error
			if w.tiered {
				st, err = newTieredStack(clk, nil, filepath.Join(dir, "bench-l1"), filepath.Join(dir, "bench-pfs"))
			} else {
				st, err = newFlatStack(clk, nil, filepath.Join(dir, "bench-l1"), w.codec, plain.policy)
			}
			if err != nil {
				t.Fatal(err)
			}
			benchRT, err := aickpt.New(aickpt.Options{PageSize: pageSize, CowBuffer: int64(w.cow * pageSize),
				CommitWorkers: defaultCommitWorkers(), Store: st})
			if err != nil {
				t.Fatal(err)
			}
			st.startCompactor()
			drive(&plain, benchRT, clk)

			opts := aickpt.Options{PageSize: pageSize, CowBuffer: int64(w.cow * pageSize)}
			if w.tiered {
				opts.Tiers = []aickpt.TierSpec{
					{Kind: aickpt.TierLocal, Dir: filepath.Join(dir, "user-l1")},
					{Kind: aickpt.TierPeer, Nodes: peerNodes, DataShards: peerData, ParityShards: peerParity},
					{Kind: aickpt.TierPFS, Dir: filepath.Join(dir, "user-pfs")},
				}
			} else {
				opts.Dir = filepath.Join(dir, "user-l1")
				opts.Compression = w.codec
			}
			userRT, err := aickpt.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			drive(&plain, userRT, clk)

			if a, b := workerLabels(benchRT), workerLabels(userRT); !reflect.DeepEqual(a, b) {
				t.Errorf("commit workers: bench %v, Options.Dir/Tiers %v", a, b)
			}
			var benchTiers, userTiers []byte
			if w.tiered {
				userRT.Hierarchy().WaitDrained()
				userTiers = tierLayout(t, userRT.Hierarchy().Manifests())
			}
			for _, rt := range []*aickpt.Runtime{benchRT, userRT} {
				if err := rt.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.close(); err != nil {
				t.Fatal(err)
			}
			if w.tiered {
				benchTiers = tierLayout(t, st.hier.Manifests())
				if !bytes.Equal(benchTiers, userTiers) {
					t.Errorf("tier manifests differ:\nbench %s\nuser  %s", benchTiers, userTiers)
				}
			}
			a, b := chain(t, filepath.Join(dir, "bench-l1")), chain(t, filepath.Join(dir, "user-l1"))
			if len(a) != 1+w.steps/w.every {
				t.Fatalf("bench chain has %d epochs", len(a))
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("chains differ:\nbench %+v\nuser  %+v", a, b)
			}
		})
	}
}

// drive runs one round's application against rt, untraced.
func drive(w *workload, rt *aickpt.Runtime, clk *clock) {
	a := newApp(w, 11, clk, nil)
	a.setUp(rt)
	a.runSteps(true)
}

// workerLabels lists the commit workers that committed pages.
func workerLabels(rt *aickpt.Runtime) []string {
	var out []string
	for name, v := range rt.Metrics().Counters {
		if strings.HasPrefix(name, "aickpt_core_worker_pages_total") && v > 0 {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// epochRecord is one sealed epoch in canonical form: commit workers append
// records in arrival order, so pages are keyed rather than listed.
type epochRecord struct {
	Epoch      uint64
	PageCount  int
	TotalBytes int64
	Codec      uint8
	Hashes     map[int]uint64
	Refs       map[int]ckpt.PageRef
}

// chain reads every sealed manifest of a repository directory.
func chain(t *testing.T, dir string) []epochRecord {
	t.Helper()
	fs, err := ckpt.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ckpt.ListSealed(fs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]epochRecord, len(ms))
	for i, m := range ms {
		e := epochRecord{Epoch: m.Epoch, PageCount: m.PageCount, TotalBytes: m.TotalBytes, Codec: m.Codec,
			Hashes: map[int]uint64{}, Refs: map[int]ckpt.PageRef{}}
		for j, p := range m.Pages {
			e.Hashes[p] = m.Hashes[j]
		}
		for _, r := range m.Refs {
			e.Refs[r.Page] = r
		}
		out[i] = e
	}
	return out
}

// tierLayout projects tier manifests of either API onto the fields both
// share under one JSON spelling: where each epoch lives, in what state,
// with which shard layout.
func tierLayout(t *testing.T, manifests any) []byte {
	t.Helper()
	raw, err := json.Marshal(manifests)
	if err != nil {
		t.Fatal(err)
	}
	var generic []struct {
		Epoch uint64
		Tiers []struct {
			Tier   string
			Level  int
			State  string
			Shards *struct {
				Data, Parity, Start int
				Nodes               []string
			}
		}
	}
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
