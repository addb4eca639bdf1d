package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/ckpt"
	"repro/internal/compact"
	"repro/internal/compress"
	"repro/internal/multilevel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Peer tier shape of the tiers workload: k=4 data + m=2 parity shards over
// six in-process peer nodes.
const (
	peerData, peerParity, peerNodes = 4, 2, 6
)

// defaultCommitWorkers is the commit-worker count aickpt.New picks for
// Options.Dir and Options.Tiers. A custom Store defaults to one worker, so
// the bench passes this value explicitly to measure what users get.
func defaultCommitWorkers() int {
	return min(runtime.GOMAXPROCS(0), 8)
}

// stack is one workload's storage assembly, built from the constructors
// aickpt.New uses and handed to the runtime through Options.Store so every
// layer can be wrapped from outside. It implements aickpt.Store and keeps
// the Store concurrency contract: WritePage runs concurrently for pages of
// one epoch, EndEpoch never overlaps that epoch's WritePage calls.
type stack struct {
	clk  *clock
	tr   *tracer // nil in untraced rounds
	dirs []string

	repo *ckpt.Repository      // flat stacks
	hier *multilevel.Hierarchy // tiered stacks
	peer *multilevel.PeerTier  // tiered stacks

	compactCfg compact.Config
	compactor  *compactor

	mu      sync.Mutex
	sealed  map[uint64]time.Duration //aickpt:guardedby mu (EndEpoch return per epoch)
	stored  map[uint64]time.Duration //aickpt:guardedby mu (last lower-tier Store return per epoch)
	sealErr []error                  //aickpt:guardedby mu
}

// newFlatStack is Options.Dir's assembly: one repository over an OSFS
// directory with the workload's codec and dedup on.
func newFlatStack(clk *clock, tr *tracer, dir string, codec aickpt.Compression, policy aickpt.CompactionPolicy) (*stack, error) {
	fs, err := ckpt.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	s := &stack{clk: clk, tr: tr, dirs: []string{dir}, sealed: map[uint64]time.Duration{}}
	s.repo = ckpt.NewRepository(fs, pageSize)
	c := repoCodec(codec)
	if c != compress.None {
		s.repo.SetCodec(c)
	}
	s.repo.SetDedup(true)
	s.compactCfg = compact.Config{
		FS:       fs,
		PageSize: pageSize,
		Codec:    uint8(c),
		Policy:   compactPolicy(policy),
	}
	return s, nil
}

// newTieredStack is Options.Tiers' assembly for [L1 dir, peer k=4 m=2 over
// six nodes, PFS dir] with the default drain policy. Lower tiers are
// wrapped so their Store and Load calls can be timed.
func newTieredStack(clk *clock, tr *tracer, l1Dir, pfsDir string) (*stack, error) {
	env := sim.NewRealEnv()
	s := &stack{clk: clk, tr: tr, dirs: []string{l1Dir, pfsDir},
		sealed: map[uint64]time.Duration{}, stored: map[uint64]time.Duration{}}
	l1fs, err := ckpt.NewOSFS(l1Dir)
	if err != nil {
		return nil, err
	}
	pfsfs, err := ckpt.NewOSFS(pfsDir)
	if err != nil {
		return nil, err
	}
	local := multilevel.NewLocalTier(env, "local", l1fs, pageSize, nil)
	local.SetDedup(true)
	nodes := make([]*multilevel.PeerNode, peerNodes)
	for i := range nodes {
		nodes[i] = multilevel.NewPeerNode(fmt.Sprintf("peer-node%d", i), nil)
	}
	peer, err := multilevel.NewPeerTier("peer", peerData, peerParity, nodes, nil)
	if err != nil {
		return nil, err
	}
	s.peer = peer
	pfs := multilevel.NewLocalTier(env, "pfs", pfsfs, pageSize, nil)
	// The runtime hands its metric set to L1 through SetMetrics; the drain
	// pipeline gets its own set, built as aickpt.New builds the runtime's,
	// so drain instrumentation costs what it costs users.
	drainObs := obs.New(env.Now)
	drainObs.Journal = obs.NewJournal(obs.DefaultJournalDepth)
	drainObs.Spans = obs.NewSpanLog(obs.DefaultSpanDepth)
	h, err := multilevel.New(multilevel.Config{
		Env:      env,
		PageSize: pageSize,
		Local:    local,
		Lower:    []multilevel.Tier{&tier{Tier: peer, s: s}, &tier{Tier: pfs, s: s, last: true}},
		Metrics:  drainObs,
	})
	if err != nil {
		return nil, err
	}
	s.hier = h
	s.compactCfg = compact.Config{
		FS:          l1fs,
		PageSize:    pageSize,
		CanFold:     h.Settled,
		OnCompacted: func(base ckpt.Manifest, _ []uint64) { h.MarkSuperseded(base) },
	}
	return s, nil
}

func repoCodec(c aickpt.Compression) compress.Codec {
	switch c {
	case aickpt.CompressionZero:
		return compress.Zero
	case aickpt.CompressionFlate:
		return compress.Flate
	default:
		return compress.None
	}
}

func compactPolicy(p aickpt.CompactionPolicy) compact.Policy {
	return compact.Policy{MaxDepth: p.MaxChainDepth, MaxAmplification: p.MaxAmplification, KeepRecent: p.KeepRecent}
}

// SetMetrics receives the runtime's metric set, as aickpt.New hands it to a
// Store that understands it, and forwards it where Options.Dir and
// Options.Tiers attach it: the repository (L1) and the compaction passes.
func (s *stack) SetMetrics(m *obs.Metrics) {
	if s.repo != nil {
		s.repo.SetMetrics(m)
	} else {
		s.hier.Local().SetMetrics(m)
	}
	s.compactCfg.Metrics = m
}

// startCompactor sets up compaction once the runtime has attached its
// metrics: background passes after seals when the workload has a policy
// (aickpt.New runs no compactor otherwise), and the closing pass every
// workload ends with. Call it before the first Checkpoint.
func (s *stack) startCompactor() {
	s.compactor = newCompactor(s.compactCfg, s.clk, s.tr, s.compactCfg.Policy.Enabled())
}

// WritePage implements aickpt.Store.
func (s *stack) WritePage(epoch uint64, page int, data []byte, size int) error {
	if s.tr == nil {
		return s.inner().WritePage(epoch, page, data, size)
	}
	start := s.clk.now()
	err := s.inner().WritePage(epoch, page, data, size)
	s.tr.span(spanWritePage, epoch, start, s.clk.now())
	return err
}

// EndEpoch implements aickpt.Store: it seals on L1, records when the
// epoch became durable (one clock read), and kicks compaction as the
// runtime's own store adapter does.
func (s *stack) EndEpoch(epoch uint64) error {
	var start time.Duration
	if s.tr != nil {
		start = s.clk.now()
	}
	err := s.inner().EndEpoch(epoch)
	end := s.clk.now()
	if s.tr != nil {
		s.tr.span(spanEndEpoch, epoch, start, end)
	}
	s.mu.Lock()
	if err != nil {
		s.sealErr = append(s.sealErr, fmt.Errorf("seal epoch %d: %w", epoch, err))
	} else {
		s.sealed[epoch] = end
	}
	s.mu.Unlock()
	if err == nil {
		s.compactor.kick()
	}
	return err
}

func (s *stack) inner() aickpt.Store {
	if s.repo != nil {
		return s.repo
	}
	return s.hier
}

// sealedAt returns when epoch's EndEpoch returned.
func (s *stack) sealedAt(epoch uint64) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.sealed[epoch]
	return t, ok
}

// storedAt returns when epoch's last lower-tier Store returned; for a
// single-tier stack that is the L1 seal.
func (s *stack) storedAt(epoch uint64) (time.Duration, bool) {
	if s.hier == nil {
		return s.sealedAt(epoch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.stored[epoch]
	return t, ok
}

func (s *stack) errs() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.sealErr...)
}

// close stops background work: the compactor, then the drain pipeline
// (which waits until every sealed epoch reached every tier).
func (s *stack) close() error {
	s.compactor.close()
	if s.hier != nil {
		return s.hier.Close()
	}
	return nil
}

// tier wraps one lower tier of the hierarchy. It forwards the optional
// interfaces the drainer probes (Layouter, EpochHolder, DegradedReporter)
// with the answer the drainer assumes when the wrapped tier lacks one, so
// the hierarchy behaves exactly as with the bare tier.
type tier struct {
	multilevel.Tier
	s    *stack
	last bool // the slowest tier: its Store return ends the epoch's drain
}

func (t *tier) Store(ep *multilevel.EpochData) error {
	var start time.Duration
	if t.s.tr != nil {
		start = t.s.clk.now()
	}
	err := t.Tier.Store(ep)
	end := t.s.clk.now()
	if t.s.tr != nil {
		t.s.tr.tierSpan(spanPromote, t.Name(), ep.Epoch, start, end)
	}
	if t.last {
		t.s.mu.Lock()
		t.s.stored[ep.Epoch] = end
		t.s.mu.Unlock()
	}
	return err
}

func (t *tier) Load(epoch uint64) (*multilevel.EpochData, error) {
	if t.s.tr == nil {
		return t.Tier.Load(epoch)
	}
	start := t.s.clk.now()
	ep, err := t.Tier.Load(epoch)
	if err == nil {
		t.s.tr.tierSpan(spanLoad, t.Name(), epoch, start, t.s.clk.now())
	}
	return ep, err
}

func (t *tier) Layout(epoch uint64) *multilevel.ShardLayout {
	if l, ok := t.Tier.(multilevel.Layouter); ok {
		return l.Layout(epoch)
	}
	return nil
}

func (t *tier) Has(epoch uint64) bool {
	h, ok := t.Tier.(multilevel.EpochHolder)
	return ok && h.Has(epoch)
}

func (t *tier) Degraded(epoch uint64) bool {
	d, ok := t.Tier.(multilevel.DegradedReporter)
	return ok && d.Degraded(epoch)
}

// compactor runs compact.RunOnce in the background after seals, as the
// runtime's compactor does: kicks arriving during a pass coalesce into one
// follow-up pass, passes never overlap, and a kick pending at close is
// still served. Owning the loop lets the bench time every pass from
// outside.
type compactor struct {
	cfg  compact.Config
	clk  *clock
	tr   *tracer
	wake chan struct{} // capacity 1: a pending kick absorbs later ones; nil without background passes
	done chan struct{}

	mu     sync.Mutex
	passes []passResult //aickpt:guardedby mu
}

type passResult struct {
	res        compact.Result
	err        error
	start, end time.Duration
}

func newCompactor(cfg compact.Config, clk *clock, tr *tracer, background bool) *compactor {
	c := &compactor{cfg: cfg, clk: clk, tr: tr}
	if background {
		c.wake, c.done = make(chan struct{}, 1), make(chan struct{})
		go func() {
			defer close(c.done)
			for range c.wake {
				c.pass(false)
			}
		}()
	}
	return c
}

func (c *compactor) kick() {
	if c.wake == nil {
		return
	}
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// close stops background passes after serving any pending kick.
func (c *compactor) close() {
	if c.wake != nil {
		close(c.wake)
		<-c.done
	}
}

// pass runs one compaction pass, policy-driven or forced, and records it.
func (c *compactor) pass(force bool) passResult {
	start := c.clk.now()
	res, err := compact.RunOnce(c.cfg, force)
	p := passResult{res: res, err: err, start: start, end: c.clk.now()}
	if c.tr != nil {
		c.tr.span(spanCompact, res.BaseTo, p.start, p.end)
	}
	c.mu.Lock()
	c.passes = append(c.passes, p)
	c.mu.Unlock()
	return p
}

func (c *compactor) results() []passResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]passResult(nil), c.passes...)
}
