package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// sweepdRoundSecs is the planning estimate of one cold round (three
// overlapping window jobs) on the reference machine; it turns --seconds into
// a fixed number of rounds, so a seed always means the same jobs.
const sweepdRoundSecs = 2.2

// sweepdWarmSeed seeds the one-point warm-up job of every setup; no measured
// job uses it, so its point never counts as a measured hit or miss.
const sweepdWarmSeed = 0x5d_1_5e7a9

// minWarmJobs keeps the warm phase large enough that hit_job_s_tail is at
// least the 95th percentile.
const minWarmJobs = 200

type sweepdParams struct {
	n, pool, q, trials int
	p                  float64
	ks                 []int
	levels             []float64
	window, stride     int
	rounds, setups     int
}

// sweepdScale is the issue's k-connectivity job mix — n = 500, P = 5000,
// q = 2, p = 0.5, k ∈ {2, 3}, sliding K windows over 36..48 step 2 — or a
// 3-value K axis at n = 60 for the smoke test.
func sweepdScale(rc runConfig) sweepdParams {
	sp := sweepdParams{n: 500, pool: 5000, q: 2, p: 0.5, trials: 4, levels: []float64{2, 3},
		window: 3, stride: 2, setups: 3}
	for k := 36; k <= 48; k += 2 {
		sp.ks = append(sp.ks, k)
	}
	// An even number of rounds gives both clients the same work.
	sp.rounds = 2 * max(1, int(math.Round(float64(rc.seconds)/(2*sweepdRoundSecs))))
	if rc.tiny {
		sp.n, sp.pool, sp.trials, sp.ks, sp.rounds, sp.setups = 60, 600, 2, []int{14, 16, 18}, 2, 2
		sp.window, sp.stride = 2, 1
	}
	if rc.trace {
		sp.setups = 1
	}
	return sp
}

// windows are the K windows of one round: window consecutive K values,
// starting every stride values, so neighbouring windows share K values.
func (sp sweepdParams) windows() [][]int {
	var out [][]int
	for s := 0; s+sp.window <= len(sp.ks); s += sp.stride {
		out = append(out, sp.ks[s:s+sp.window])
	}
	return out
}

// uniquePerRound is how many distinct points one round's jobs cover.
func (sp sweepdParams) uniquePerRound() int {
	seen := map[int]bool{}
	for _, w := range sp.windows() {
		for _, k := range w {
			seen[k] = true
		}
	}
	return len(seen) * len(sp.levels)
}

func (sp sweepdParams) spec(seed uint64, ks []int) sweepserve.JobSpec {
	return sweepserve.JobSpec{
		Kind: sweepserve.KindKConn, Sensors: sp.n, Pool: sp.pool, Trials: sp.trials, Seed: seed,
		Grid: sweepserve.GridSpec{Ks: ks, Qs: []int{sp.q}, Ps: []float64{sp.p}, Xs: sp.levels},
	}
}

// coldSequences are the two clients' seeded cold-phase job lists. Each round
// draws a fresh spec seed from the workload seed and slides its window
// across the K axis in ascending order; client c runs the rounds r ≡ c
// (mod 2). Rounds never share points, and a client runs its round's jobs
// one after another, so which window computes a shared point never depends
// on how the two clients race.
func (sp sweepdParams) coldSequences(seed uint64) [2][]sweepserve.JobSpec {
	var seqs [2][]sweepserve.JobSpec
	for round := 0; round < sp.rounds; round++ {
		specSeed := rng.StreamSeed(seed, uint64(100+round))
		for _, w := range sp.windows() {
			seqs[round%2] = append(seqs[round%2], sp.spec(specSeed, w))
		}
	}
	return seqs
}

// warmSequences is each client's replay of its own cold specs, in a fresh
// seeded order per pass. The clients' specs are disjoint, so no two
// identical jobs are ever in flight, nothing coalesces and the hit count is
// exact.
func warmSequences(seed uint64, cold [2][]sweepserve.JobSpec) [2][]sweepserve.JobSpec {
	r := rng.New(rng.StreamSeed(seed, 4))
	passes := (minWarmJobs + len(cold[0]) + len(cold[1]) - 1) / (len(cold[0]) + len(cold[1]))
	var out [2][]sweepserve.JobSpec
	for c, own := range cold {
		for p := 0; p < passes; p++ {
			for _, i := range r.Perm(len(own)) {
				out[c] = append(out[c], own[i])
			}
		}
	}
	return out
}

func (sp sweepdParams) config(pt experiment.GridPoint) (wsn.Config, error) {
	scheme, err := keys.NewQComposite(sp.pool, pt.K, pt.Q)
	if err != nil {
		return wsn.Config{}, err
	}
	return wsn.Config{Sensors: sp.n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
}

// trialBuild is a sweep's per-point trial constructor, the type
// sweepserve.Options.WrapTrialBuild wraps.
type trialBuild = func(experiment.GridPoint) (montecarlo.Trial, error)

// daemon is an in-process sweepd: a journal-backed store, a manager with the
// default single job worker, and the HTTP API on a loopback listener.
type daemon struct {
	store   *sweepserve.Store
	manager *sweepserve.Manager
	srv     *http.Server
	served  chan error
	base    string
	journal string
}

func startDaemon(journal string, wrap func(trialBuild) trialBuild) (*daemon, error) {
	store, err := sweepserve.OpenStore(journal)
	if err != nil {
		return nil, err
	}
	m := sweepserve.NewManager(sweepserve.Options{Store: store, WrapTrialBuild: wrap})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		store.Close()
		return nil, err
	}
	d := &daemon{store: store, manager: m, journal: journal, served: make(chan error, 1),
		srv: &http.Server{Handler: sweepserve.NewServer(m)}, base: "http://" + ln.Addr().String()}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server down, waits for Serve to return, then closes
// the manager and the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serveErr := <-d.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	d.manager.Close()
	return errors.Join(err, d.store.Close())
}

// jobRecord is one job as its client saw it: client-side span boundaries,
// the terminal status and the CSV.
type jobRecord struct {
	spec                       sweepserve.JobSpec
	warm                       bool
	post, posted, running, end time.Time
	got                        time.Time
	status                     sweepserve.JobStatus
	coalesced                  bool
	csv                        []byte
	err                        error
}

func (j *jobRecord) latency() float64 { return j.got.Sub(j.post).Seconds() }

// miss reports whether the job computed at least one point.
func (j *jobRecord) miss() bool { return j.status.Progress.Cached < j.status.Progress.Total }

// runJob drives one job through the HTTP API: POST, then the SSE stream until
// its terminal event (the running event marks the end of queueing), then the
// CSV.
func runJob(ctx context.Context, hc *http.Client, base string, spec sweepserve.JobSpec) *jobRecord {
	j := &jobRecord{spec: spec, post: time.Now()}
	j.err = func() error {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		var ack sweepserve.SubmitResponse
		if err := call(ctx, hc, http.MethodPost, base+"/v1/jobs", body, func(r io.Reader) error {
			return json.NewDecoder(r).Decode(&ack)
		}); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		j.posted, j.coalesced = time.Now(), ack.Coalesced
		if err := call(ctx, hc, http.MethodGet, base+"/v1/jobs/"+ack.ID+"/events", nil, j.watch); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if j.status.State != sweepserve.StateDone {
			return fmt.Errorf("job %s ended %s: %s", ack.ID, j.status.State, j.status.Error)
		}
		return call(ctx, hc, http.MethodGet, base+"/v1/jobs/"+ack.ID+"/result?format=csv", nil, func(r io.Reader) error {
			j.csv, err = io.ReadAll(r)
			return err
		})
	}()
	j.got = time.Now()
	return j
}

// watch reads the SSE stream, stamping the first event that shows the job
// running (or already finished) and the terminal event.
func (j *jobRecord) watch(r io.Reader) error {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stream ended before a terminal event: %w", err)
		}
		data, ok := strings.CutPrefix(strings.TrimSpace(line), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &j.status); err != nil {
			return err
		}
		now := time.Now()
		if j.running.IsZero() && j.status.State != sweepserve.StateQueued {
			j.running = now
		}
		if j.status.State == sweepserve.StateDone || j.status.State == sweepserve.StateFailed {
			j.end = now
			return nil
		}
	}
}

// call sends one request and hands a 2xx body to read; any other status is
// an error (a 503 counts as a failed operation like any other).
func call(ctx context.Context, hc *http.Client, method, url string, body []byte, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return read(resp.Body)
}

// phase is the outcome of one daemon's cold and warm phases.
type phase struct {
	jobs               []*jobRecord
	cold, warm         float64 // phase wall times, s
	stats0, stats1     sweepserve.ServerStats
	allocs, allocBytes uint64
	journalBytes       int64
}

// runPhases runs the cold sequence, then the warm replay, each with two
// closed-loop clients.
func runPhases(ctx context.Context, d *daemon, cold, warm [2][]sweepserve.JobSpec) (*phase, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	ph := &phase{}
	var err error
	if ph.stats0, err = serverStats(ctx, hc, d.base); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	keep := func(j *jobRecord) {
		mu.Lock()
		defer mu.Unlock()
		ph.jobs = append(ph.jobs, j)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	clients(func(c int) {
		for _, spec := range cold[c] {
			keep(runJob(ctx, hc, d.base, spec))
		}
	})
	ph.cold = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	ph.allocs, ph.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	start = time.Now()
	clients(func(c int) {
		for _, spec := range warm[c] {
			j := runJob(ctx, hc, d.base, spec)
			j.warm = true
			keep(j)
		}
	})
	ph.warm = time.Since(start).Seconds()
	if ph.stats1, err = serverStats(ctx, hc, d.base); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(d.journal); err == nil {
		ph.journalBytes = fi.Size()
	}
	return ph, nil
}

// clients runs two closed-loop clients and waits for both.
func clients(fn func(c int)) {
	var wg sync.WaitGroup
	wg.Add(2)
	for c := 0; c < 2; c++ {
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

func serverStats(ctx context.Context, hc *http.Client, base string) (sweepserve.ServerStats, error) {
	var st sweepserve.ServerStats
	err := call(ctx, hc, http.MethodGet, base+"/v1/stats", nil, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	return st, err
}

// kconnSpans are the traced trial's spans: CSR deployment and the exact
// k-connectivity test per level.
type kconnSpans struct {
	mu     sync.Mutex
	deploy []float64
	kconn  map[int][]float64
}

// wrap substitutes the daemon's trial with DeployRand + IsKConnected(k),
// the same calls the kconn trial makes for k ≥ 2, timed per call.
func (ks *kconnSpans) wrap(sp sweepdParams) func(trialBuild) trialBuild {
	return func(trialBuild) trialBuild {
		return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			k, err := experiment.KOf(pt)
			if err != nil {
				return nil, err
			}
			cfg, err := sp.config(pt)
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
				t0 := time.Now()
				net, err := d.DeployRand(r)
				if err != nil {
					return false, err
				}
				t1 := time.Now()
				ok, err := net.IsKConnected(k)
				t2 := time.Now()
				ks.mu.Lock()
				defer ks.mu.Unlock()
				ks.deploy = append(ks.deploy, t1.Sub(t0).Seconds())
				ks.kconn[k] = append(ks.kconn[k], t2.Sub(t1).Seconds())
				return ok, err
			}, nil
		}
	}
}

// runSweepd measures k-connectivity jobs against an in-process sweepd:
// a cold phase where overlapping windows make some points hit the store and
// most miss, then a warm replay where every point hits.
func runSweepd(ctx context.Context, rc runConfig, rep *report) error {
	sp := sweepdScale(rc)
	cold := sp.coldSequences(rc.seed)
	warm := warmSequences(rc.seed, cold)
	rep.note("working set: n=%d, P=%d: %d+%d cold jobs in %d rounds (%d distinct points per round), %d+%d warm jobs, %d trials per point",
		sp.n, sp.pool, len(cold[0]), len(cold[1]), sp.rounds, sp.uniquePerRound(), len(warm[0]), len(warm[1]), sp.trials)

	setupN := 0
	start := func(wrap func(trialBuild) trialBuild) (*daemon, float64, error) {
		setupN++
		t0 := time.Now()
		d, err := startDaemon(rc.scratchFile(fmt.Sprintf("store-%d.journal", setupN)), wrap)
		if err != nil {
			return nil, 0, err
		}
		warmSpec := sp.spec(sweepdWarmSeed, sp.ks[len(sp.ks)-1:])
		warmSpec.Grid.Xs = sp.levels[len(sp.levels)-1:]
		hc := &http.Client{Transport: &http.Transport{}}
		j := runJob(ctx, hc, d.base, warmSpec)
		hc.CloseIdleConnections()
		if j.err != nil {
			return nil, 0, errors.Join(fmt.Errorf("warm-up job: %w", j.err), d.stop())
		}
		return d, time.Since(t0).Seconds(), nil
	}
	d, setup, err := medianOfSetups(sp.setups, func() (*daemon, float64, error) { return start(nil) }, func(d *daemon) {
		if err := d.stop(); err != nil {
			rep.check(false, "stopping a setup daemon: %v", err)
		}
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	rep.note("setup_s: median of %d setups (OpenStore + NewManager + NewServer + listener + a one-point warm-up job)", sp.setups)

	plain, err := runPhases(ctx, d, cold, warm)
	rep.set("peak_rss_mb", peakRSSMB())
	if err := errors.Join(err, d.stop()); err != nil {
		return err
	}
	checkPhase(rep, sp, plain)
	var missLat []float64
	for _, j := range plain.jobs {
		if !j.warm && j.miss() {
			missLat = append(missLat, j.latency())
		}
	}
	computed := plain.stats1.Store.Misses - plain.stats0.Store.Misses
	rep.set("trials_per_s", float64(computed*sp.trials)/plain.cold)
	rep.set("result_s_p50", median(missLat))
	rep.note("result_s_p50: median POST-to-CSV time over %d jobs that computed points: %.4f s; cold phase %.3f s, %d points computed, trials_per_s %.3f",
		len(missLat), median(missLat), plain.cold, computed, float64(computed*sp.trials)/plain.cold)
	if err := checkOffline(ctx, rc, rep, sp, cold, plain); err != nil {
		return err
	}
	if !rc.trace {
		return nil
	}

	spans := &kconnSpans{kconn: map[int][]float64{}}
	d, _, err = start(spans.wrap(sp))
	if err != nil {
		return err
	}
	traced, err := runPhases(ctx, d, cold, warm)
	if err := errors.Join(err, d.stop()); err != nil {
		return err
	}
	checkPhase(rep, sp, traced)
	checkSameCSV(rep, traced, plain)
	t0 := time.Now()
	store, err := sweepserve.OpenStore(d.journal)
	if err != nil {
		return err
	}
	restore := time.Since(t0).Seconds()
	restored := store.Stats().Restored
	if err := store.Close(); err != nil {
		return err
	}
	rep.check(restored == traced.stats1.Store.Points, "restart restored %d points, the store held %d", restored, traced.stats1.Store.Points)
	setSweepdLayers(rep, sp, traced, plain, spans)
	rep.set("sweepserve.restore_s", restore)
	return nil
}

// setSweepdLayers reports the traced daemon's per-layer metrics.
func setSweepdLayers(rep *report, sp sweepdParams, ph, plain *phase, spans *kconnSpans) {
	var submit, queue, runMiss, runHit, result, hit []float64
	for _, j := range ph.jobs {
		submit = append(submit, j.posted.Sub(j.post).Seconds())
		result = append(result, j.got.Sub(j.end).Seconds())
		if j.warm {
			// A hit job finishes before its event stream opens, so its run
			// span starts at the POST reply.
			hit = append(hit, j.latency())
			runHit = append(runHit, j.end.Sub(j.posted).Seconds())
			continue
		}
		if j.miss() {
			queue = append(queue, j.running.Sub(j.posted).Seconds())
			runMiss = append(runMiss, j.end.Sub(j.running).Seconds())
		}
	}
	rep.set("sweepserve.submit_s_p50", median(submit))
	rep.set("sweepserve.queue_s_p50", median(queue))
	rep.set("sweepserve.run_miss_s_p50", median(runMiss))
	rep.set("sweepserve.run_hit_s_p50", median(runHit))
	rep.set("sweepserve.result_s_p50", median(result))
	rep.set("sweepserve.hit_job_s_p50", median(hit))
	pct, tailV, ok := tail(hit)
	if rep.check(ok, "only %d warm jobs; the tail needs at least 11", len(hit)) {
		rep.set("sweepserve.hit_job_s_tail", tailV)
		rep.set("sweepserve.hit_job_tail_pct", float64(pct))
	}
	rep.note("sweepserve.hit_job_s_p50 %.6f s and p%d %.6f s over %d warm jobs; %d miss jobs",
		median(hit), pct, tailV, len(hit), len(runMiss))
	rep.set("sweepserve.jobs_per_s", float64(len(ph.jobs))/(ph.cold+ph.warm))
	hits := ph.stats1.Store.Hits - ph.stats0.Store.Hits
	misses := ph.stats1.Store.Misses - ph.stats0.Store.Misses
	rep.set("sweepserve.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	rep.set("sweepserve.points_computed", float64(misses))
	rep.set("sweepserve.coalesced", float64(ph.stats1.Coalesced-ph.stats0.Coalesced))
	rep.set("sweepserve.journal_bytes", float64(ph.journalBytes))

	trials := float64(misses * sp.trials)
	rep.set("wsn.allocs_per_trial", ratio(float64(plain.allocs), trials))
	rep.set("wsn.alloc_bytes_per_trial", ratio(float64(plain.allocBytes), trials))
	rep.set("wsn.deploy_csr_s_p50", median(spans.deploy))
	rep.set("graphalgo.kconn2_s_p50", median(spans.kconn[2]))
	rep.set("graphalgo.kconn3_s_p50", median(spans.kconn[3]))
	rep.set("trace_overhead_frac", ph.cold/plain.cold-1)
	rep.note("traced: %d trials (%d at k=2, %d at k=3); cold phase %.3f s traced vs %.3f s untraced",
		len(spans.deploy), len(spans.kconn[2]), len(spans.kconn[3]), ph.cold, plain.cold)
}

// pointKey names one point of one spec seed across jobs.
type pointKey struct {
	seed uint64
	row  string // "k,q,p,x"
}

// csvPoints splits a job CSV into its rows keyed by point parameters.
func csvPoints(seed uint64, csv []byte) (map[pointKey]string, error) {
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "k,q,p,x,") {
		return nil, fmt.Errorf("malformed job CSV %q", csv)
	}
	out := map[pointKey]string{}
	for _, l := range lines[1:] {
		f := strings.SplitN(l, ",", 5)
		if len(f) < 5 {
			return nil, fmt.Errorf("malformed job CSV row %q", l)
		}
		out[pointKey{seed, strings.Join(f[:4], ",")}] = f[4]
	}
	return out, nil
}

// checkPhase checks every job of one daemon's phases: each finished, each
// point's estimate is identical in every job that returns it, every warm
// point hit the store, and the store computed exactly the distinct points.
func checkPhase(rep *report, sp sweepdParams, ph *phase) {
	seen := map[pointKey]string{}
	for _, j := range ph.jobs {
		rep.attempted++
		if j.err != nil {
			rep.failed++
			rep.check(false, "job failed: %v", j.err)
			continue
		}
		rep.check(!j.coalesced, "job %s coalesced; the job mix never has two identical jobs in flight", j.status.ID)
		if j.warm {
			rep.check(!j.miss(), "warm job %s computed %d points; every point should hit the store",
				j.status.ID, j.status.Progress.Total-j.status.Progress.Cached)
		}
		rows, err := csvPoints(j.spec.Seed, j.csv)
		if !rep.check(err == nil, "job %s: %v", j.status.ID, err) {
			continue
		}
		rep.check(len(rows) == j.status.Progress.Total, "job %s: CSV has %d points, status %d", j.status.ID, len(rows), j.status.Progress.Total)
		for k, v := range rows {
			if prev, ok := seen[k]; ok {
				rep.check(prev == v, "point %v: estimate %q in one job, %q in another", k, prev, v)
			}
			seen[k] = v
		}
	}
	misses := ph.stats1.Store.Misses - ph.stats0.Store.Misses
	rep.check(misses == sp.rounds*sp.uniquePerRound(), "store computed %d points, want %d distinct", misses, sp.rounds*sp.uniquePerRound())
}

// checkSameCSV requires the traced daemon to return the untraced daemon's
// CSV for every spec.
func checkSameCSV(rep *report, traced, plain *phase) {
	want := map[string][]byte{}
	for _, j := range plain.jobs {
		want[specKey(j.spec)] = j.csv
	}
	for _, j := range traced.jobs {
		rep.check(bytes.Equal(j.csv, want[specKey(j.spec)]), "traced job %s CSV differs from the untraced one", j.status.ID)
	}
}

func specKey(s sweepserve.JobSpec) string {
	b, _ := json.Marshal(s) // a JobSpec always marshals
	return string(b)
}

// checkOffline re-runs one seeded cold spec as an offline
// experiment.SweepKConnectivity and requires the daemon's CSV byte for byte.
func checkOffline(ctx context.Context, rc runConfig, rep *report, sp sweepdParams, cold [2][]sweepserve.JobSpec, ph *phase) error {
	all := append(append([]sweepserve.JobSpec(nil), cold[0]...), cold[1]...)
	spec := all[rng.New(rng.StreamSeed(rc.seed, 5)).Intn(len(all))]
	var got []byte
	for _, j := range ph.jobs {
		if specKey(j.spec) == specKey(spec) {
			got = j.csv
			break
		}
	}
	res, err := experiment.SweepKConnectivity(ctx, spec.Grid.Grid(),
		experiment.SweepConfig{Trials: spec.Trials, Workers: 2, Seed: spec.Seed}, sp.config)
	if err != nil {
		return fmt.Errorf("offline k-connectivity sweep: %w", err)
	}
	want, err := offlineCSV(res)
	if err != nil {
		return err
	}
	rep.check(bytes.Equal(got, want), "daemon CSV for %v differs from the offline SweepKConnectivity:\n%s\nvs\n%s", spec.Grid, got, want)
	rep.note("checked: %d jobs' per-point estimates agree; one sampled job matches an offline SweepKConnectivity", len(ph.jobs))
	return nil
}

// offlineCSV renders offline sweep results through the daemon's own CSV
// renderer, with the 95% Wilson interval the daemon reports.
func offlineCSV(res []experiment.ProportionResult) ([]byte, error) {
	jr := sweepserve.JobResult{Kind: sweepserve.KindKConn}
	for _, r := range res {
		lo, hi := r.Value.WilsonInterval(1.96)
		jr.Points = append(jr.Points, sweepserve.PointResult{
			Index: r.Point.Index, K: r.Point.K, Q: r.Point.Q, P: r.Point.P, X: r.Point.X,
			Successes: r.Value.Successes, Trials: r.Value.Trials, Estimate: r.Value.Estimate(), Lo: lo, Hi: hi,
		})
	}
	var buf bytes.Buffer
	err := jr.RenderCSV(&buf)
	return buf.Bytes(), err
}
