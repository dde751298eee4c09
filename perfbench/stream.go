package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// streamTrialSecs is the planning estimate of one n = 10⁶ trial on the
// reference machine (2-vCPU Xeon VM, 2 MiB L2 per core, 105 MiB shared L3),
// where trials took 4.2–8 s as the host's load changed; it turns --seconds
// into a fixed trial count, so a seed always means the same work.
const streamTrialSecs = 6.0

// streamWarmSeed seeds the untimed warm-up trial of every setup. It is fixed,
// not drawn from the workload seed, so setup_s measures the same work in
// every run.
const streamWarmSeed = 0x5eed_0f_5e7a9

// acceptSigmas is how many binomial standard errors keys.accept_ratio may sit
// from theory.KeyShareProb before the run is rejected.
const acceptSigmas = 6

type streamParams struct {
	n, pool, ring, q int
	p                float64
	trials, setups   int
}

// streamScale is the ladder's top rung — n = 10⁶, K = 32, P = 512, q = 2,
// p = 8·ln n/(0.594·n) — or n = 2000 for the smoke test.
func streamScale(rc runConfig) streamParams {
	sp := streamParams{n: 1_000_000, pool: 512, ring: 32, q: 2, setups: 3}
	sp.trials = max(2, int(math.Round(float64(rc.seconds)/streamTrialSecs)))
	if rc.tiny {
		sp.n, sp.trials = 2000, 4
	}
	if rc.trace {
		sp.setups = 1
	}
	sp.p = 8 * math.Log(float64(sp.n)) / 0.594 / float64(sp.n)
	return sp
}

func (sp streamParams) config() (wsn.Config, error) {
	scheme, err := keys.NewQComposite(sp.pool, sp.ring, sp.q)
	if err != nil {
		return wsn.Config{}, err
	}
	return wsn.Config{Sensors: sp.n, Scheme: scheme, Channel: channel.OnOff{P: sp.p}}, nil
}

// runStream measures single-threaded DeployConnectivity trials at n = 10⁶.
// Untraced: setup_s, trials_per_s and the median trial time. Traced: each
// trial seed runs fused (DeployConnectivity) and composed from the layer
// calls, which must agree exactly; the layer spans come from the composed
// trial and the difference is the trace overhead.
func runStream(_ context.Context, rc runConfig, rep *report) error {
	sp := streamScale(rc)
	cfg, err := sp.config()
	if err != nil {
		return err
	}
	rep.note("working set: n=%d: bitmap arena %.0f MB, key IDs %.0f MB, union-find %.0f MB",
		sp.n, float64(sp.n)*float64((sp.pool+63)/64*8)/1e6, float64(sp.n*sp.ring*4)/1e6, float64(sp.n*8)/1e6)
	d, setup, err := medianOfSetups(sp.setups, func() (*wsn.Deployer, float64, error) {
		start := time.Now()
		d, err := wsn.NewDeployer(cfg)
		if err != nil {
			return nil, 0, err
		}
		if _, err := d.DeployConnectivity(streamWarmSeed); err != nil {
			return nil, 0, err
		}
		return d, time.Since(start).Seconds(), nil
	}, func(*wsn.Deployer) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	rep.note("setup_s: median of %d setups (NewDeployer + one warm-up trial)", sp.setups)

	var c *composer
	if rc.trace {
		if c, err = newComposer(cfg); err != nil {
			return err
		}
		if _, _, err := c.trial(rng.New(streamWarmSeed)); err != nil {
			return err
		}
	}
	var fused, traced []float64
	var lt layerTimes
	var ms0, ms1 runtime.MemStats
	var allocs, allocBytes uint64
	for i := 0; i < sp.trials; i++ {
		seed := rng.StreamSeed(rc.seed, uint64(i))
		rep.attempted++
		if rc.trace {
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		st, err := d.DeployConnectivity(seed)
		dur := time.Since(start)
		if rc.trace {
			runtime.ReadMemStats(&ms1)
			allocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		if err != nil {
			rep.failed++
			rep.check(false, "trial %d: %v", i, err)
			continue
		}
		fused = append(fused, dur.Seconds())
		checkConnected(rep, i, st)
		if !rc.trace {
			continue
		}
		cst, clt, err := c.trial(rng.New(seed))
		if err != nil {
			return fmt.Errorf("traced trial %d: %w", i, err)
		}
		rep.check(cst == st, "trial %d: traced composition gave %+v, DeployConnectivity gave %+v", i, cst, st)
		traced = append(traced, clt.total.Seconds())
		lt.add(clt)
	}
	rep.set("peak_rss_mb", peakRSSMB())
	total := sum(fused)
	rep.set("trials_per_s", ratio(float64(len(fused)), total))
	rep.set("result_s_p50", median(fused))
	rep.note("result_s_p50: median DeployConnectivity trial time over %d trials: %.4f s (trials_per_s %.4f); trial times %.3f",
		len(fused), median(fused), ratio(float64(len(fused)), total), fused)
	if !rc.trace {
		return nil
	}
	setLayerMetrics(rep, lt)
	checkAcceptRatio(rep, lt, sp)
	rep.set("wsn.allocs_per_trial", ratio(float64(allocs), float64(len(fused))))
	rep.set("wsn.alloc_bytes_per_trial", ratio(float64(allocBytes), float64(len(fused))))
	rep.set("wsn.unattributed_s", ratio(total-lt.selfSum().Seconds(), float64(len(fused))))
	rep.set("trace_overhead_frac", ratio(sum(traced), total)-1)
	rep.note("trace_overhead_frac: composed %.4f s vs fused %.4f s over %d trials", sum(traced), total, len(traced))
	return nil
}

// checkConnected is the untraced output check: on the connected plateau
// every n = 10⁶ trial must end as one component.
func checkConnected(rep *report, i int, st wsn.ConnStats) {
	rep.check(st.Connected && st.Components == 1 && st.Isolated == 0,
		"trial %d: expected one component on the connected plateau, got %+v", i, st)
}

// checkAcceptRatio reconciles the measured share of channel pairs sharing
// ≥ q keys with theory.KeyShareProb. The pair verdicts are pairwise
// independent, so the binomial standard error applies.
func checkAcceptRatio(rep *report, lt layerTimes, sp streamParams) {
	s, err := theory.KeyShareProb(sp.pool, sp.ring, sp.q)
	if !rep.check(err == nil, "KeyShareProb: %v", err) {
		return
	}
	got := ratio(float64(lt.accepted), float64(lt.pairsTested))
	se := math.Sqrt(s * (1 - s) / float64(lt.pairsTested))
	rep.check(lt.pairsTested > 0 && math.Abs(got-s) <= acceptSigmas*se,
		"keys.accept_ratio %.6f over %d pairs is more than %d standard errors (%.2g) from KeyShareProb %.6f",
		got, lt.pairsTested, acceptSigmas, se, s)
	rep.note("keys.accept_ratio %.6f vs KeyShareProb(%d,%d,%d) = %.6f (±%.2g s.e., %d pairs)",
		got, sp.pool, sp.ring, sp.q, s, se, lt.pairsTested)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
