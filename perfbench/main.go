// Command perfbench is the repository's real-time, on-disk benchmark. It
// drives the public aickpt runtime on OSFS directories (fsync on every
// publish, as shipped) with one of three seeded workloads, verifies every
// closing restore bit for bit against the application's own copy of its
// state, and prints end-to-end metrics (untraced) or a per-layer ledger
// (traced, -trace 1). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload stencil -seed 1 -seconds 20 -trace 0
//
// Each run repeats a fixed round (set-up, application run, closing drain
// and compaction pass, verified restore) until -seconds have passed, and
// reports medians over rounds and percentiles over the pooled steps and
// checkpoints. Exit status: 0 when every check passed, 1 when a
// checkpoint, restore or check failed (the JSON line is still printed), 2
// when the run could not start.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named, unit-carrying result line.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count and base
	// printed metrics are left out of the result line (see the README):
	// a per-layer time that only the tiers workload has, or an end-to-end
	// latency that moves with the shared machine's disk and CPU load by
	// more than the largest bound a gated metric may have.
	printed bool
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string
	spans    string
	plant    plant
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	var fault string
	fl.StringVar(&o.workload, "workload", "", "workload: stencil, tiers or restart")
	fl.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fl.Float64Var(&o.seconds, "seconds", 20, "how long to keep starting rounds")
	fl.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer ledger")
	fl.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "directory for checkpoint data")
	fl.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory for traced runs' span files")
	fl.StringVar(&fault, "plant", "", "self-test: plant a fault before each closing restore (truncate-segment)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.plant = plant(fault)
	w := findWorkload(o.workload)
	if w == nil || (trace != 0 && trace != 1) || o.seconds <= 0 || (o.plant != plantNone && o.plant != plantTruncate) {
		fmt.Fprintf(stderr, "perfbench: need -workload stencil|tiers|restart, -trace 0|1, -seconds > 0, -plant truncate-segment or none\n")
		return 2
	}
	res, err := bench(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func bench(w *workload, o options, out io.Writer) (*result, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	printEnv(out, w, o, dir)

	clk := newClock()
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	// The first round warms the process (heap growth, page cache, code
	// paths): it is checked but not measured.
	warm, err := runRound(w, warmup, o.seed, filepath.Join(dir, "warm"), clk, nil, plantNone)
	if err != nil {
		return nil, err
	}
	rounds := []*round{warm}
	cycle := []roundKind{untraced}
	if o.trace {
		cycle = []roundKind{untraced, traced, baseline}
	}
	steal0, total0 := cpuTicks()
	start := clk.now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		if clk.now()-start >= budget && enough(rounds, w, o.trace) {
			break
		}
		kind := cycle[i%len(cycle)]
		if tr != nil {
			tr.setRound(i)
		}
		// Every round starts from a collected heap with its free memory
		// returned to the OS, as a fresh process would, so no round pays
		// for garbage an earlier one left and its peak resident set is its
		// own.
		debug.FreeOSMemory()
		resetErr := resetPeakRSS()
		r, err := runRound(w, kind, o.seed, filepath.Join(dir, fmt.Sprintf("r%03d", i)), clk, tr, o.plant)
		if err != nil {
			return nil, err
		}
		r.peakRSS, r.peakResetErr = peakRSS(), resetErr
		rounds = append(rounds, r)
	}

	if steal1, total1 := cpuTicks(); total1 > total0 {
		fmt.Fprintf(out, "env: steal: %.2f%% of the machine's CPU time during the measured rounds went to other guests (/proc/stat)\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}

	res := &result{Correct: true, Metrics: map[string]value{}}
	var problems []string
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		problems = append(problems, r.problems...)
	}
	problems = append(problems, checkRepeat(rounds)...)
	if len(problems) > 0 || res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(out, "check: %d attempted (checkpoints + closing restores), %d failed; failed_ops_ratio = %.6f ratio\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, p := range problems {
		fmt.Fprintf(out, "check: FAILED: %s\n", p)
	}
	c, _ := json.Marshal(rounds[0].counts)
	fmt.Fprintf(out, "counts (seed %d, every round): %s\n", o.seed, c)

	var ms []metric
	if o.trace {
		spans := tr.snapshot()
		ms = perLayer(w, rounds, spans)
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := os.MkdirAll(o.spans, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)
	} else {
		ms = endToEnd(w, rounds)
	}
	for _, m := range ms {
		fmt.Fprintf(out, "metric %s = %s %s  (%s)\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.note)
		if !m.printed {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	return res, nil
}

// enough reports whether the rounds so far hold the samples the reported
// percentiles need: at least five measured rounds, and at least 100 steps
// and 100 checkpoints pooled (a p90 has ten samples beyond it). A traced
// run needs two whole untraced/traced/baseline cycles.
func enough(rounds []*round, w *workload, trace bool) bool {
	n := 0
	for _, r := range rounds {
		if r.kind == untraced {
			n++
		}
	}
	if trace {
		return n >= 2 && (len(rounds)-1)%3 == 0
	}
	return n >= 5 && n*w.steps >= 100 && n*(w.steps/w.every) >= 100
}

// checkRepeat verifies that the timing-independent counts repeat in every
// round (traced or not), and on the tiered workload that traced rounds
// stored every epoch on the same tiers with the same shard layouts and
// restored it from the same tier as untraced ones: the wrappers must not
// change the program.
func checkRepeat(rounds []*round) []string {
	var out []string
	var ref *round
	for _, r := range rounds {
		if r.kind == baseline {
			continue
		}
		if ref == nil {
			ref = r
			continue
		}
		if !reflect.DeepEqual(r.counts, ref.counts) {
			a, _ := json.Marshal(ref.counts)
			b, _ := json.Marshal(r.counts)
			out = append(out, fmt.Sprintf("timing-independent counts differ between rounds: %s vs %s", a, b))
		}
		if r.sources != ref.sources {
			out = append(out, "tier manifests or per-epoch restore sources differ between rounds")
		}
	}
	return out
}

func printEnv(out io.Writer, w *workload, o options, dir string) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "why: %s\n", w.why)
	fmt.Fprintf(out, "sizes: working set %d pages (%d KiB), dirty set %s, COW buffer %d pages (%d KiB), %d steps per round, checkpoint every %d steps\n",
		w.pages, w.pages*pageSize/1024, w.dirty, w.cow, w.cow*pageSize/1024, w.steps, w.every)
	fmt.Fprintf(out, "load: one closed-loop application thread, %d commit workers (the runtime default), page size %d\n",
		defaultCommitWorkers(), pageSize)
	fmt.Fprintf(out, "env: nproc=%d GOMAXPROCS=%d go=%s fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))
	fmt.Fprintf(out, "env: flush policy: OSFS atomic publish, fsync of file and directory on every publish (as shipped)\n")
	fmt.Fprintf(out, "env: restore reads are probably served from the OS page cache; restore latency is this machine's, not a device's\n")
}

// endToEnd computes the user-visible metrics from the untraced rounds.
// Each is measured per round and reported as the median over rounds, so a
// burst of noise from the shared machine that covers a few rounds moves it
// little; percentiles are taken over one round's steps or checkpoints.
func endToEnd(w *workload, rounds []*round) []metric {
	var setup, appRun, restore, stepP50, stepP90, durP50, durP90, allP50 []time.Duration
	var ratios, rss []float64
	var stored, dirty int64
	rssNote := "round's VmHWM, reset before the round"
	for _, r := range rounds {
		if r.kind != untraced {
			continue
		}
		setup = append(setup, r.setup)
		appRun = append(appRun, r.appRun)
		restore = append(restore, r.restore)
		stepP50 = append(stepP50, quantile(r.steps, 0.5))
		stepP90 = append(stepP90, quantile(r.steps, 0.9))
		durP50 = append(durP50, quantile(r.durable, 0.5))
		durP90 = append(durP90, quantile(r.durable, 0.9))
		allP50 = append(allP50, quantile(r.allTiers, 0.5))
		ratios = append(ratios, float64(r.storedBytes)/float64(r.counts.DirtyBytes))
		rss = append(rss, r.peakRSS)
		if r.peakResetErr != nil {
			rssNote = "VmHWM since the process started: the reset failed: " + r.peakResetErr.Error()
		}
		stored, dirty = r.storedBytes, r.counts.DirtyBytes
	}
	n := len(setup)
	ckpts := w.steps / w.every
	perRound := func(what string, k int) string {
		return fmt.Sprintf("median over %d rounds of %s, %d samples per round, %d in all", n, what, k, n*k)
	}
	all := "Checkpoint() call until stored on L1, peer and PFS"
	if !w.tiered {
		all = "Checkpoint() call until sealed on L1, the only tier"
	}
	sort.Float64s(ratios)
	sort.Float64s(rss)
	return []metric{
		{name: "setup_s", unit: "s", value: secs(median(setup)), note: fmt.Sprintf("median of %d rounds; construction, allocation, fill, first full checkpoint durable", n)},
		{name: "app_run_s", unit: "s", value: secs(median(appRun)), note: fmt.Sprintf("median of %d rounds of %d steps", n, w.steps)},
		{name: "step_p50_ms", unit: "ms", value: ms(median(stepP50)), note: perRound("the step p50", w.steps)},
		{name: "step_p90_ms", unit: "ms", value: ms(median(stepP90)), note: perRound("the step p90", w.steps), printed: true},
		{name: "durable_p50_ms", unit: "ms", value: ms(median(durP50)), note: perRound("the p50 from Checkpoint() call to EndEpoch return on L1", ckpts), printed: true},
		{name: "durable_p90_ms", unit: "ms", value: ms(median(durP90)), note: perRound("the p90 from Checkpoint() call to EndEpoch return on L1", ckpts), printed: true},
		{name: "all_tiers_p50_ms", unit: "ms", value: ms(median(allP50)), note: perRound("the p50 from "+all, ckpts), printed: true},
		{name: "restore_s", unit: "s", value: secs(median(restore)), note: fmt.Sprintf("median of %d rounds; closing restore with verification", n), printed: true},
		{name: "stored_bytes_per_dirty_byte", unit: "ratio", value: ratios[len(ratios)/2],
			note: fmt.Sprintf("median of %d rounds; e.g. %d bytes on disk after the final drain and compaction pass / %d page bytes dirtied", n, stored, dirty)},
		{name: "peak_rss_mb", unit: "MiB", value: rss[len(rss)/2], note: fmt.Sprintf("median of %d rounds of the %s; process VmHWM %.2f MiB", n, rssNote, peakRSS())},
	}
}

// perLayer computes the per-layer ledger from the traced rounds' spans and
// counters, and the tracing overhead from the untraced and baseline rounds.
func perLayer(w *workload, rounds []*round, spans []span) []metric {
	var tracedRun, plainRun, baseRun []time.Duration
	var waits, cows, avoided int
	var written, stored, dedup int
	var raw, coded uint64
	var passMs []time.Duration
	var passes, folded, liveMax int
	var rewritten, reclaimed int64
	var restoreCall []time.Duration
	var segments []int
	sources := map[string]int{}
	nTraced := 0
	for _, r := range rounds {
		switch r.kind {
		case warmup:
			continue
		case untraced:
			plainRun = append(plainRun, r.appRun)
			continue
		case baseline:
			baseRun = append(baseRun, r.appRun)
			continue
		}
		nTraced++
		tracedRun = append(tracedRun, r.appRun)
		for _, s := range r.stats {
			waits += s.Waits
			cows += s.Cows
			avoided += s.Avoided
			written += s.PagesCommitted
		}
		stored += r.dedup.PagesStored
		dedup += r.dedup.PagesDeduped
		raw += r.rawBytes
		coded += r.codedBytes
		for _, p := range r.passes {
			passMs = append(passMs, p.end-p.start)
			passes++
			if p.res.Compacted {
				folded += p.res.EpochsFolded
				rewritten += p.res.BytesWritten
			}
			reclaimed += p.res.BytesReclaimed
			liveMax = max(liveMax, p.res.LiveSegments)
		}
		restoreCall = append(restoreCall, r.restoreCall)
		segments = append(segments, r.segmentsRead)
		for t, n := range r.tierSources {
			sources[t] += n
		}
	}
	ckptCall := durations(spans, spanCheckpoint, "")
	first := durations(spans, spanFirstWrite, "")
	writes := durations(spans, spanWritePage, "")
	seals := durations(spans, spanEndEpoch, "")
	self := flushSelf(spans)
	hit := 0.0
	if waits+cows+avoided > 0 {
		hit = float64(avoided) / float64(waits+cows+avoided)
	}
	sort.Ints(segments)
	rounds1 := fmt.Sprintf("%d traced rounds", nTraced)
	n := func(ds []time.Duration, what string) string { return fmt.Sprintf("%d %s", len(ds), what) }
	out := []metric{
		{name: "core.checkpoint_call_ms_p50", unit: "ms", value: ms(quantile(ckptCall, 0.5)), note: n(ckptCall, "Runtime.Checkpoint calls")},
		{name: "core.checkpoint_call_ms_p90", unit: "ms", value: ms(quantile(ckptCall, 0.9)), note: n(ckptCall, "Runtime.Checkpoint calls")},
		{name: "core.first_write_us_p50", unit: "us", value: us(quantile(first, 0.5)), note: n(first, "first writes after a checkpoint")},
		{name: "core.first_write_us_p99", unit: "us", value: us(quantile(first, 0.99)), note: n(first, "first writes after a checkpoint")},
		{name: "core.first_write_s", unit: "s", value: secs(sum(first)), note: "total over " + rounds1},
		{name: "core.waits", unit: "count", value: float64(waits), note: "Runtime.Stats, " + rounds1},
		{name: "core.cows", unit: "count", value: float64(cows), note: "Runtime.Stats, " + rounds1},
		{name: "core.avoided", unit: "count", value: float64(avoided), note: "Runtime.Stats, " + rounds1},
		{name: "core.hit_rate", unit: "ratio", value: hit, note: "avoided / (waits + cows + avoided)"},
		{name: "core.flush_self_ms_p50", unit: "ms", value: ms(quantile(self, 0.5)), note: n(self, "epochs: request to seal minus WritePage/EndEpoch cover")},
		{name: "ckpt.write_page_us_p50", unit: "us", value: us(quantile(writes, 0.5)), note: n(writes, "Store.WritePage calls")},
		{name: "ckpt.write_page_us_p99", unit: "us", value: us(quantile(writes, 0.99)), note: n(writes, "Store.WritePage calls")},
		{name: "ckpt.write_pages", unit: "count", value: float64(len(writes)), note: fmt.Sprintf("pages committed per Runtime.Stats: %d", written)},
		{name: "ckpt.write_busy_s", unit: "s", value: secs(sum(writes)), note: "summed over both commit workers"},
		{name: "ckpt.end_epoch_ms_p50", unit: "ms", value: ms(quantile(seals, 0.5)), note: n(seals, "Store.EndEpoch calls")},
		{name: "ckpt.end_epoch_ms_p90", unit: "ms", value: ms(quantile(seals, 0.9)), note: n(seals, "Store.EndEpoch calls")},
		{name: "ckpt.end_epoch_busy_s", unit: "s", value: secs(sum(seals)), note: "total over " + rounds1},
		{name: "ckpt.dedup_hit_ratio", unit: "ratio", value: ratio(float64(dedup), float64(dedup+stored)), note: fmt.Sprintf("%d deduped / %d page writes (DedupStats)", dedup, dedup+stored)},
		{name: "compress.coded_bytes_ratio", unit: "ratio", value: ratio(float64(coded), float64(raw-uint64(dedup)*pageSize)), note: fmt.Sprintf("%d coded / %d raw bytes of stored records", coded, raw-uint64(dedup)*pageSize)},
		{name: "compact.pass_ms_p50", unit: "ms", value: ms(quantile(passMs, 0.5)), note: n(passMs, "compact.RunOnce passes, the closing pass included")},
		{name: "compact.pass_ms_max", unit: "ms", value: ms(maxOf(passMs)), note: n(passMs, "passes")},
		{name: "compact.passes", unit: "count", value: float64(passes), note: rounds1},
		{name: "compact.epochs_folded", unit: "count", value: float64(folded), note: rounds1},
		{name: "compact.bytes_rewritten", unit: "bytes", value: float64(rewritten), note: "base segment bytes written"},
		{name: "compact.bytes_reclaimed", unit: "bytes", value: float64(reclaimed), note: "garbage collected"},
		{name: "compact.live_segments_max", unit: "count", value: float64(liveMax), note: "chain length after a pass"},
		{name: "ckpt.restore_s", unit: "s", value: secs(median(restoreCall)), note: "restore call without verification, mean of a round's restores, median over " + rounds1},
		{name: "ckpt.restore_segments", unit: "count", value: float64(segments[len(segments)/2]), note: "segments (epochs) read by the median round"},
		{name: "multilevel.restore_epochs.peer", unit: "count", value: float64(sources["peer"]), note: "epochs served by the peer tier, " + rounds1},
		{name: "multilevel.restore_epochs.pfs", unit: "count", value: float64(sources["pfs"]), note: "epochs served by PFS, " + rounds1},
	}
	if w.tiered {
		for _, t := range []string{"peer", "pfs"} {
			wait := drainWaits(spans, t)
			prom := durations(spans, spanPromote, t)
			out = append(out,
				metric{name: "multilevel.drain_wait_ms." + t + "_p50", unit: "ms", value: ms(quantile(wait, 0.5)), note: n(wait, "epochs, L1 seal to Store start"), printed: true},
				metric{name: "multilevel.promote_ms." + t + "_p50", unit: "ms", value: ms(quantile(prom, 0.5)), note: n(prom, "Tier.Store calls"), printed: true},
				metric{name: "multilevel.promote_ms." + t + "_p90", unit: "ms", value: ms(quantile(prom, 0.9)), note: n(prom, "Tier.Store calls"), printed: true})
		}
		load := durations(spans, spanLoad, "peer")
		pfsLoad := durations(spans, spanLoad, "pfs")
		pfsNote := n(pfsLoad, "Tier.Load calls")
		if len(pfsLoad) == 0 {
			pfsNote = "not measured: with one of six peer nodes lost every epoch reconstructs from the peer tier, so no restore read PFS"
		}
		out = append(out,
			metric{name: "multilevel.load_ms.peer_p50", unit: "ms", value: ms(quantile(load, 0.5)), note: n(load, "Tier.Load calls (k-of-n reconstruct)"), printed: true},
			metric{name: "multilevel.load_ms.pfs_p50", unit: "ms", value: ms(quantile(pfsLoad, 0.5)), note: pfsNote, printed: true})
	}
	base, plain, tracedMed := median(baseRun), median(plainRun), median(tracedRun)
	out = append(out,
		metric{name: "workload.baseline_run_s", unit: "s", value: secs(base), note: fmt.Sprintf("median of %d rounds without Checkpoint calls; untraced app_run_s median %.4f s", len(baseRun), secs(plain))},
		metric{name: "trace.overhead_pct", unit: "%", value: 100 * (secs(tracedMed) - secs(plain)) / secs(plain), note: fmt.Sprintf("traced vs untraced app_run_s medians, %d and %d rounds", len(tracedRun), len(plainRun))},
	)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("magic 0x%x", st.Type)
}

// cpuTicks returns the steal and total ticks of all CPUs from /proc/stat,
// or zeros when it cannot be read.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS sets the process's peak resident set (VmHWM) back to its
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
