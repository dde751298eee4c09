package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// fig1TrialSecs is the planning estimate of one grid trial's share of the
// sweep's wall time with two shards on the reference machine; it turns
// --seconds into a fixed trials-per-point budget.
const fig1TrialSecs = 0.075

// fig1WarmSeed seeds the untimed one-trial warm-up sweep of every setup.
const fig1WarmSeed = 0xf16_1_5e7a9

type fig1Params struct {
	n, pool                          int
	grid                             experiment.Grid
	trials, setups, csrSample, warmK int
}

// fig1Scale is the paper's Figure 1 grid — n = 1000, P = 10000,
// K = 28..88 step 4, q ∈ {2, 3}, p ∈ {1, 0.5, 0.2}: 96 points — or a 4-point
// grid at n = 200 for the smoke test.
func fig1Scale(rc runConfig) fig1Params {
	fp := fig1Params{n: 1000, pool: 10000, setups: 3, csrSample: 3, warmK: 60}
	for k := 28; k <= 88; k += 4 {
		fp.grid.Ks = append(fp.grid.Ks, k)
	}
	fp.grid.Qs = []int{2, 3}
	fp.grid.Ps = []float64{1, 0.5, 0.2}
	fp.trials = max(1, int(math.Round(float64(rc.seconds)/(fig1TrialSecs*float64(fp.grid.Len())))))
	if rc.tiny {
		fp = fig1Params{n: 200, pool: 2000, trials: 2, setups: 2, csrSample: 2, warmK: 30,
			grid: experiment.Grid{Ks: []int{20, 40}, Qs: []int{2}, Ps: []float64{1, 0.5}}}
	}
	return fp
}

func (fp fig1Params) build(pt experiment.GridPoint) (wsn.Config, error) {
	scheme, err := keys.NewQComposite(fp.pool, pt.K, pt.Q)
	if err != nil {
		return wsn.Config{}, err
	}
	return wsn.Config{Sensors: fp.n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
}

func (fp fig1Params) label() string {
	return fmt.Sprintf("perfbench figure1 n=%d pool=%d", fp.n, fp.pool)
}

// pointClock times each grid point from the build call that starts it to the
// PointDone hook that reports it landed.
type pointClock struct {
	mu    sync.Mutex
	start map[int]time.Time
	durs  []float64
}

func newPointClock() *pointClock { return &pointClock{start: map[int]time.Time{}} }

func (pc *pointClock) begin(pt experiment.GridPoint) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.start[pt.Index] = time.Now()
}

func (pc *pointClock) done(pt experiment.GridPoint, _ bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.durs = append(pc.durs, time.Since(pc.start[pt.Index]).Seconds())
}

// timedWriter is the traced Checkpoint sink: it times every journal append.
type timedWriter struct {
	w       io.Writer
	mu      sync.Mutex
	durs    []float64
	written int
}

func (tw *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := tw.w.Write(p)
	d := time.Since(start)
	tw.mu.Lock()
	defer tw.mu.Unlock()
	tw.durs = append(tw.durs, d.Seconds())
	tw.written += n
	return n, err
}

// fig1Sweep is one measured sweep's outcome.
type fig1Sweep struct {
	results []experiment.ProportionResult
	wall    float64
	points  *pointClock
	journal string
}

// sweepFig1 runs the grid once with its checkpoint journal in a fresh file.
// trial, when non-nil, replaces the fused streaming trial (the traced run);
// wrap, when non-nil, wraps the journal file.
func sweepFig1(ctx context.Context, rc runConfig, fp fig1Params, name string,
	trial func(pt experiment.GridPoint) (montecarlo.Trial, error), wrap func(io.Writer) io.Writer) (fig1Sweep, error) {
	out := fig1Sweep{points: newPointClock(), journal: rc.scratchFile(name)}
	f, err := os.Create(out.journal)
	if err != nil {
		return out, err
	}
	defer f.Close()
	var w io.Writer = f
	if wrap != nil {
		w = wrap(f)
	}
	cfg := experiment.SweepConfig{
		Trials: fp.trials, Workers: 2, PointWorkers: 2, Seed: rng.StreamSeed(rc.seed, 1),
		Checkpoint: w, JournalLabel: fp.label(), PointDone: out.points.done,
	}
	start := time.Now()
	if trial != nil {
		out.results, err = experiment.SweepProportion(ctx, fp.grid, cfg, func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			out.points.begin(pt)
			return trial(pt)
		})
	} else {
		out.results, err = experiment.SweepConnectivity(ctx, fp.grid, cfg, func(pt experiment.GridPoint) (wsn.Config, error) {
			out.points.begin(pt)
			return fp.build(pt)
		})
	}
	out.wall = time.Since(start).Seconds()
	if err != nil {
		return out, err
	}
	return out, f.Close()
}

// runFigure1 measures the Figure 1 sweep through experiment.SweepConnectivity
// with two shards of one trial worker each and a checkpoint journal.
func runFigure1(ctx context.Context, rc runConfig, rep *report) error {
	fp := fig1Scale(rc)
	points := fp.grid.Len()
	rep.note("working set: n=%d, P=%d: %d points x %d trials; rings %.1f-%.1f KB, channel pairs up to %d per trial",
		fp.n, fp.pool, points, fp.trials, float64(fp.n*fp.grid.Ks[0]*4)/1e3,
		float64(fp.n*fp.grid.Ks[len(fp.grid.Ks)-1]*4)/1e3, fp.n*(fp.n-1)/2)
	_, setup, err := medianOfSetups(fp.setups, func() (struct{}, float64, error) {
		start := time.Now()
		_, err := experiment.SweepConnectivity(ctx,
			experiment.Grid{Ks: []int{fp.warmK}, Qs: []int{2}, Ps: []float64{0.5}},
			experiment.SweepConfig{Trials: 1, Workers: 1, Seed: fig1WarmSeed}, fp.build)
		return struct{}{}, time.Since(start).Seconds(), err
	}, func(struct{}) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	rep.note("setup_s: median of %d setups (grid construction + a one-trial warm-up sweep)", fp.setups)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, err := sweepFig1(ctx, rc, fp, "figure1.journal", nil, nil)
	runtime.ReadMemStats(&ms1)
	rep.set("peak_rss_mb", peakRSSMB())
	trials := points * fp.trials
	rep.attempted += trials
	if err != nil {
		rep.failed += trials
		return err
	}
	rep.set("trials_per_s", float64(trials)/plain.wall)
	rep.set("result_s_p50", median(plain.points.durs))
	rep.note("result_s_p50: median grid-point time over %d points: %.4f s; sweep %.3f s, trials_per_s %.3f over %d trials",
		len(plain.points.durs), median(plain.points.durs), plain.wall, float64(trials)/plain.wall, trials)
	checkJournal(rep, plain.journal, points)
	if err := checkCSR(ctx, rc, rep, fp, plain.results); err != nil {
		return err
	}
	if !rc.trace {
		return nil
	}

	var mu sync.Mutex
	var lt layerTimes
	tw := &timedWriter{}
	traced, err := sweepFig1(ctx, rc, fp, "figure1-traced.journal",
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			cfg, err := fp.build(pt)
			if err != nil {
				return nil, err
			}
			first, err := newComposer(cfg)
			if err != nil {
				return nil, err
			}
			// cfg passed newComposer once, so later constructions cannot fail.
			pool := sync.Pool{New: func() any { c, _ := newComposer(cfg); return c }}
			pool.Put(first)
			return func(_ int, r *rng.Rand) (bool, error) {
				c := pool.Get().(*composer)
				defer pool.Put(c)
				st, t, err := c.trial(r)
				mu.Lock()
				lt.add(t)
				mu.Unlock()
				return st.Connected, err
			}, nil
		},
		func(w io.Writer) io.Writer { tw.w = w; return tw })
	if err != nil {
		return fmt.Errorf("traced sweep: %w", err)
	}
	checkSameResults(rep, "traced sweep", traced.results, plain.results)
	setLayerMetrics(rep, lt)
	rep.set("wsn.allocs_per_trial", float64(ms1.Mallocs-ms0.Mallocs)/float64(trials))
	rep.set("wsn.alloc_bytes_per_trial", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(trials))
	rep.set("wsn.unattributed_s", (sum(plain.points.durs)-lt.selfSum().Seconds())/float64(trials))
	rep.set("experiment.point_s_p50", median(traced.points.durs))
	rep.set("experiment.point_s_max", maxOf(traced.points.durs))
	rep.set("experiment.shard_busy_frac", sum(traced.points.durs)/(2*traced.wall))
	rep.set("experiment.journal_append_us_p50", 1e6*median(tw.durs))
	rep.set("experiment.journal_bytes_per_point", float64(tw.written)/float64(points))
	rep.set("trace_overhead_frac", traced.wall/plain.wall-1)
	rep.note("trace_overhead_frac: traced sweep %.3f s vs untraced %.3f s; %d journal appends",
		traced.wall, plain.wall, len(tw.durs))
	return nil
}

// checkJournal checks the checkpoint journal holds a header and one record
// per grid point.
func checkJournal(rep *report, path string, points int) {
	data, err := os.ReadFile(path)
	if !rep.check(err == nil, "reading journal: %v", err) {
		return
	}
	lines := bytes.Count(data, []byte("\n"))
	rep.check(lines == points+1, "journal has %d records, want a header and %d points", lines, points)
}

// checkSameResults requires two sweeps' estimates to agree bit for bit.
func checkSameResults(rep *report, what string, got, want []experiment.ProportionResult) {
	if !rep.check(len(got) == len(want), "%s: %d points, want %d", what, len(got), len(want)) {
		return
	}
	for i := range got {
		rep.check(got[i] == want[i], "%s: point %v gave %+v, want %+v", what, want[i].Point, got[i].Value, want[i].Value)
	}
}

// checkCSR re-runs a seeded sample of grid points on the CSR path — Deploy
// then Network.IsConnected, at the same parameter-derived seeds — and
// requires exactly the streaming sweep's counts.
func checkCSR(ctx context.Context, rc runConfig, rep *report, fp fig1Params, got []experiment.ProportionResult) error {
	r := rng.New(rng.StreamSeed(rc.seed, 2))
	for i := 0; i < fp.csrSample; i++ {
		want := got[r.Intn(len(got))]
		pt := want.Point
		res, err := experiment.SweepProportion(ctx,
			experiment.Grid{Ks: []int{pt.K}, Qs: []int{pt.Q}, Ps: []float64{pt.P}},
			experiment.SweepConfig{Trials: fp.trials, Workers: 2, Seed: rng.StreamSeed(rc.seed, 1)},
			func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				cfg, err := fp.build(pt)
				if err != nil {
					return nil, err
				}
				dp, err := wsn.NewDeployerPool(cfg)
				if err != nil {
					return nil, err
				}
				return func(_ int, r *rng.Rand) (bool, error) {
					d := dp.Get()
					defer dp.Put(d)
					net, err := d.DeployRand(r)
					if err != nil {
						return false, err
					}
					return net.IsConnected()
				}, nil
			})
		if err != nil {
			return fmt.Errorf("CSR re-check of %v: %w", pt, err)
		}
		rep.check(res[0].Value == want.Value, "CSR path at %v gave %+v, streaming sweep %+v", pt, res[0].Value, want.Value)
	}
	rep.note("checked: journal records, %d sampled points re-run on the CSR path", fp.csrSample)
	return nil
}
