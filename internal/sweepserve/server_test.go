// The sweep-as-a-service integration suite: every test drives the server
// through real HTTP (httptest) with the exported client, and every
// correctness claim is anchored to the offline engine — server results must
// DeepEqual what a local experiment.Sweep* call computes, because the
// service's whole contract is "the same sweep, shared".
package sweepserve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/secure-wsn/qcomposite/internal/adversary"
	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/faultinject"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// Test deployment parameters: small enough that a full grid runs in
// milliseconds, large enough that connectivity is genuinely probabilistic.
const (
	testSensors = 30
	testPool    = 150
	testTrials  = 12
	testSeed    = uint64(7)
)

// testEnv is one server stack: store → manager → HTTP server → client.
type testEnv struct {
	store   *sweepserve.Store
	manager *sweepserve.Manager
	http    *httptest.Server
	client  *sweepserve.Client
}

func newEnv(t *testing.T, opts sweepserve.Options) *testEnv {
	t.Helper()
	m := sweepserve.NewManager(opts)
	srv := httptest.NewServer(sweepserve.NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return &testEnv{
		store:   m.Store(),
		manager: m,
		http:    srv,
		client:  &sweepserve.Client{Base: srv.URL, HTTP: srv.Client(), Poll: 5 * time.Millisecond},
	}
}

// connectivitySpec is the suite's bread-and-butter job: a figure1-style
// proportion sweep over (ring, p) with the rings on the Ks axis.
func connectivitySpec(ks []int, ps []float64) sweepserve.JobSpec {
	return sweepserve.JobSpec{
		Kind:    sweepserve.KindConnectivity,
		Sensors: testSensors,
		Pool:    testPool,
		Trials:  testTrials,
		Seed:    testSeed,
		Grid:    sweepserve.GridSpec{Ks: ks, Qs: []int{1}, Ps: ps},
	}
}

// offlineConnectivity runs the offline twin of connectivitySpec through the
// engine directly — the reference every server answer is compared against.
func offlineConnectivity(t *testing.T, ks []int, ps []float64) []experiment.ProportionResult {
	t.Helper()
	grid := experiment.Grid{Ks: ks, Qs: []int{1}, Ps: ps}
	results, err := experiment.SweepConnectivity(context.Background(), grid,
		experiment.SweepConfig{Trials: testTrials, Seed: testSeed},
		func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(testPool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: testSensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
		})
	if err != nil {
		t.Fatalf("offline reference sweep failed: %v", err)
	}
	return results
}

// TestConcurrentClientsOverlappingGrids is the tentpole's concurrency proof:
// 8 clients hammer one server (run it under -race) with overlapping grids.
// Every client's answer must DeepEqual its offline twin — concurrency and
// caching must never leak into results — and because job execution
// serializes on the default single job worker, the store's hit/miss split is
// exactly determined: misses = distinct points across all grids, hits =
// total grid points − distinct points (the overlap).
func TestConcurrentClientsOverlappingGrids(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})

	// 8 distinct grids sliding a 4-wide window over a shared Ps axis: heavy
	// pairwise overlap, no two identical (identical specs would coalesce and
	// blur the hit accounting tested here).
	masterPs := []float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7}
	masterKs := []int{6, 9}
	type clientGrid struct {
		ks []int
		ps []float64
	}
	grids := make([]clientGrid, 8)
	for i := range grids {
		grids[i] = clientGrid{ks: masterKs, ps: masterPs[i : i+4]}
	}

	totalPoints, distinct := 0, map[[2]any]bool{}
	for _, g := range grids {
		totalPoints += len(g.ks) * len(g.ps)
		for _, k := range g.ks {
			for _, p := range g.ps {
				distinct[[2]any{k, p}] = true
			}
		}
	}

	results := make([][]experiment.ProportionResult, len(grids))
	errs := make([]error, len(grids))
	var wg sync.WaitGroup
	for i, g := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = env.client.RunProportion(context.Background(), connectivitySpec(g.ks, g.ps))
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d failed: %v", i, err)
		}
	}
	for i, g := range grids {
		want := offlineConnectivity(t, g.ks, g.ps)
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("client %d: server results differ from offline sweep\n got %+v\nwant %+v", i, results[i], want)
		}
	}

	st := env.store.Stats()
	wantMisses := len(distinct)
	wantHits := totalPoints - wantMisses
	if st.Misses != wantMisses || st.Hits != wantHits {
		t.Errorf("store hits/misses = %d/%d, want %d/%d (each distinct point computed exactly once)",
			st.Hits, st.Misses, wantHits, wantMisses)
	}
	if st.Points != wantMisses {
		t.Errorf("store holds %d points, want %d", st.Points, wantMisses)
	}
	if frac := float64(st.Hits) / float64(totalPoints); frac < 0.5 {
		t.Errorf("cache hit fraction %.2f below the grids' overlap fraction", frac)
	}
}

// TestCoalescingIdenticalJobs: identical specs submitted while the first is
// active collapse onto one job ID and one execution.
func TestCoalescingIdenticalJobs(t *testing.T) {
	release := make(chan struct{})
	var started sync.Once
	startedCh := make(chan struct{})
	env := newEnv(t, sweepserve.Options{
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				started.Do(func() { close(startedCh) })
				<-release // hold the job open so later submissions land mid-flight
				return build(pt)
			}
		},
	})

	ctx := context.Background()
	spec := connectivitySpec([]int{6}, []float64{0.5})
	first, err := env.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-startedCh
	second, err := env.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Coalesced || second.ID != first.ID {
		t.Errorf("identical in-flight spec got job %+v, want coalesced onto %s", second, first.ID)
	}
	// A different spec must NOT coalesce.
	other, err := env.client.Submit(ctx, connectivitySpec([]int{9}, []float64{0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if other.Coalesced || other.ID == first.ID {
		t.Errorf("distinct spec coalesced: %+v", other)
	}
	close(release)
	if st, err := env.client.Wait(ctx, first.ID); err != nil || st.State != sweepserve.StateDone {
		t.Fatalf("job did not finish cleanly: %+v, %v", st, err)
	}
	stats, err := env.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coalesced != 1 {
		t.Errorf("server reports %d coalesced submissions, want 1", stats.Coalesced)
	}
}

// TestRestartResume is the satellite's crash story, end to end: a delay
// fault wedges the last grid point, the server is torn down mid-grid
// (exactly what the SIGTERM drain path does), a new server starts on the
// same journal file, and the re-submitted job must (a) restore every
// completed point from the journal — zero recomputation — and (b) produce
// CSV bytes identical to a server that never died.
func TestRestartResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "store.journal")
	spec := connectivitySpec([]int{6, 9}, []float64{0.3, 0.6, 0.9})
	total := 6
	wedged := experiment.Grid{Ks: []int{6, 9}, Qs: []int{1}, Ps: []float64{0.3, 0.6, 0.9}}.Points()[total-1]

	// Life 1: sequential points, serial trials, and a 50ms-per-trial delay
	// fault on the final point only — by the time the injector slows it
	// down, every other point is already journaled.
	store1, err := sweepserve.OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	injector := faultinject.New(faultinject.Config{Seed: 1, TrialDelayProb: 1, Delay: 50 * time.Millisecond})
	m1 := sweepserve.NewManager(sweepserve.Options{
		Store:        store1,
		TrialWorkers: 1,
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			slow := injector.ProportionBuild(build)
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				if pt.Index == wedged.Index {
					return slow(pt)
				}
				return build(pt)
			}
		},
	})
	srv1 := httptest.NewServer(sweepserve.NewServer(m1))
	client1 := &sweepserve.Client{Base: srv1.URL, HTTP: srv1.Client(), Poll: 2 * time.Millisecond}

	ctx := context.Background()
	ack, err := client1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := client1.Status(ctx, ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Progress.Done == total-1 {
			break
		}
		if st.State == sweepserve.StateDone || st.State == sweepserve.StateFailed {
			t.Fatalf("job reached %s before the wedge engaged: %+v", st.State, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached %d completed points: %+v", total-1, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The job is inside the wedged point's delayed trials. Tear the server
	// down the way the SIGTERM drain does: cancel running sweeps, wait for
	// the drain, close the journal.
	srv1.Close()
	m1.Close()
	store1.Close()
	st, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("journal empty after shutdown — completed points were not persisted")
	}

	// Life 2: same journal, no faults. The re-submitted job must restore
	// all total−1 completed points and compute exactly the wedged one.
	store2, err := sweepserve.OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := store2.Stats().Restored; got != total-1 {
		t.Fatalf("restart restored %d points, want %d", got, total-1)
	}
	var rebuilt []experiment.GridPoint
	var mu sync.Mutex
	m2 := sweepserve.NewManager(sweepserve.Options{
		Store: store2,
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				mu.Lock()
				rebuilt = append(rebuilt, pt)
				mu.Unlock()
				return build(pt)
			}
		},
	})
	srv2 := httptest.NewServer(sweepserve.NewServer(m2))
	defer func() {
		srv2.Close()
		m2.Close()
		store2.Close()
	}()
	client2 := &sweepserve.Client{Base: srv2.URL, HTTP: srv2.Client(), Poll: 2 * time.Millisecond}

	ack2, err := client2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := client2.Wait(ctx, ack2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sweepserve.StateDone {
		t.Fatalf("resumed job ended %s: %+v", final.State, final)
	}
	if final.Progress.Cached != total-1 {
		t.Errorf("resumed job restored %d points from the journal, want %d", final.Progress.Cached, total-1)
	}
	if len(rebuilt) != 1 || rebuilt[0].Index != wedged.Index {
		t.Errorf("restart recomputed points %v, want exactly the wedged point %v", rebuilt, wedged)
	}
	gotCSV, err := client2.CSV(ctx, ack2.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The uninterrupted reference: a fresh memory-only server runs the same
	// spec start to finish. Byte-identical CSV is the claim.
	clean := newEnv(t, sweepserve.Options{})
	ack3, err := clean.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := clean.client.Wait(ctx, ack3.ID); err != nil || st.State != sweepserve.StateDone {
		t.Fatalf("clean run did not finish: %+v, %v", st, err)
	}
	wantCSV, err := clean.client.CSV(ctx, ack3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("restart-resumed CSV differs from uninterrupted run\n got:\n%s\nwant:\n%s", gotCSV, wantCSV)
	}
}

// TestSpecValidation is the satellite's malformed-spec table: every bad spec
// must come back as a structured 400 naming the offending field — the
// difference between an API and a stack trace.
func TestSpecValidation(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	base := func() sweepserve.JobSpec { return connectivitySpec([]int{6}, []float64{0.5}) }

	cases := []struct {
		name   string
		mutate func(*sweepserve.JobSpec)
		field  string
	}{
		{"unknown kind", func(s *sweepserve.JobSpec) { s.Kind = "warp" }, "kind"},
		{"missing kind", func(s *sweepserve.JobSpec) { s.Kind = "" }, "kind"},
		{"zero trials", func(s *sweepserve.JobSpec) { s.Trials = 0 }, "trials"},
		{"negative trials", func(s *sweepserve.JobSpec) { s.Trials = -5 }, "trials"},
		{"zero sensors", func(s *sweepserve.JobSpec) { s.Sensors = 0 }, "sensors"},
		{"zero pool", func(s *sweepserve.JobSpec) { s.Pool = 0 }, "pool"},
		{"twice-bound channel", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindCross
			s.Binding = "on"
			s.Grid.Xs = []float64{0.5}
			s.Channel = &sweepserve.ChannelSpec{Type: "alwayson"}
		}, "channel"},
		{"twice-bound level", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindCross
			s.Binding = "k"
			s.Grid.Xs = []float64{2}
			s.K = 3
		}, "k"},
		{"cross without binding", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindCross
			s.Grid.Xs = []float64{2}
		}, "binding"},
		{"unknown binding", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindCross
			s.Binding = "gravity"
			s.Grid.Xs = []float64{2}
		}, "binding"},
		{"class-count mismatch", func(s *sweepserve.JobSpec) {
			s.Grid.Ks = nil
			s.Classes = []sweepserve.ClassSpec{{Mu: 0.5, Ring: 6}, {Mu: 0.5, Ring: 9}}
			s.Channel = &sweepserve.ChannelSpec{Type: "heteronoff", On: [][]float64{{0.5}}}
		}, "channel.on"},
		{"heteronoff without classes", func(s *sweepserve.JobSpec) {
			s.Channel = &sweepserve.ChannelSpec{Type: "heteronoff", On: [][]float64{{0.5}}}
		}, "classes"},
		{"classes plus Ks axis", func(s *sweepserve.JobSpec) {
			s.Classes = []sweepserve.ClassSpec{{Mu: 1, Ring: 6}}
		}, "grid.ks"},
		{"unknown channel type", func(s *sweepserve.JobSpec) {
			s.Channel = &sweepserve.ChannelSpec{Type: "quantum"}
		}, "channel.type"},
		{"bad on probability", func(s *sweepserve.JobSpec) {
			p := 1.5
			s.Channel = &sweepserve.ChannelSpec{Type: "onoff", P: &p}
		}, "channel.p"},
		{"design bad target", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindDesign
			s.Grid.Ks = nil
			s.Target = 1.5
			s.KMax = 2
		}, "target"},
		{"design bad kmax", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindDesign
			s.Grid.Ks = nil
			s.Target = 0.9
			s.KMax = 0
		}, "kmax"},
		{"design with explicit Xs", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindDesign
			s.Grid.Ks = nil
			s.Target = 0.9
			s.KMax = 2
			s.Grid.Xs = []float64{1}
		}, "grid.xs"},
		{"campaign bad timeline", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindCampaign
			s.Grid.Xs = []float64{1}
			s.Timeline = "meteor:10"
		}, "timeline"},
		{"campaign empty timeline", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindCampaign
			s.Grid.Xs = []float64{1}
		}, "timeline"},
		{"campaign fractional budget", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindCampaign
			s.Timeline = "capture:5"
			s.Grid.Xs = []float64{1.5}
		}, "grid.xs"},
		{"negative mindegree level", func(s *sweepserve.JobSpec) {
			s.Kind = sweepserve.KindMinDegree
			s.K = -1
		}, "k"},
		{"ring larger than pool", func(s *sweepserve.JobSpec) {
			s.Grid.Ks = []int{testPool + 1}
		}, "spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mutate(&spec)
			_, err := env.client.Submit(context.Background(), spec)
			if err == nil {
				t.Fatal("malformed spec accepted")
			}
			specErr, ok := err.(*sweepserve.SpecError)
			if !ok {
				t.Fatalf("error is %T (%v), want *SpecError round-tripped through the 400", err, err)
			}
			if specErr.Field != tc.field {
				t.Errorf("400 names field %q (%s), want %q", specErr.Field, specErr.Msg, tc.field)
			}
			if specErr.Msg == "" {
				t.Error("400 carries no message")
			}
		})
	}

	// Unknown top-level JSON fields are rejected too (catches typos like
	// "trails" silently defaulting trials to 0 — the server names the body).
	resp, err := env.http.Client().Post(env.http.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"connectivity","trails":100}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown JSON field got status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedSpecRejected pins the body bound of POST /v1/jobs: a spec
// past maxSpecBytes gets a 413 carrying a structured error that names the
// body, and the server keeps accepting normal specs afterwards.
func TestOversizedSpecRejected(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	// A syntactically valid spec whose Ks axis alone is over 1 MiB.
	body := `{"kind":"connectivity","grid":{"ks":[` + strings.Repeat("6,", 600_000) + `6]}}`
	resp, err := env.http.Client().Post(env.http.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec got status %d, want 413", resp.StatusCode)
	}
	var specErr sweepserve.SpecError
	if err := json.NewDecoder(resp.Body).Decode(&specErr); err != nil {
		t.Fatalf("413 body is not a structured error: %v", err)
	}
	if specErr.Field != "body" || specErr.Msg == "" {
		t.Errorf("413 carries %+v, want field \"body\" and a message", specErr)
	}
	if _, err := env.client.Submit(context.Background(), connectivitySpec([]int{6}, []float64{0.5})); err != nil {
		t.Fatalf("normal spec after the oversized one: %v", err)
	}
}

// TestKindEquivalence pins every proportion job kind to its offline engine
// twin: kconn/cross against CrossSweep, mindegree against SweepMinDegree,
// campaign against SweepCampaign — same grid, same seeds, DeepEqual results.
func TestKindEquivalence(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()
	cfg := experiment.SweepConfig{Trials: testTrials, Seed: testSeed}
	buildQC := func(pt experiment.GridPoint) (wsn.Config, error) {
		scheme, err := keys.NewQComposite(testPool, pt.K, pt.Q)
		if err != nil {
			return wsn.Config{}, err
		}
		return wsn.Config{Sensors: testSensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
	}

	t.Run("kconn", func(t *testing.T) {
		grid := experiment.Grid{Ks: []int{9}, Qs: []int{1}, Ps: []float64{0.7}, Xs: []float64{1, 2}}
		want, err := experiment.CrossSweep(ctx, grid, cfg, experiment.CrossSpec{
			Bindings: []experiment.XBinding{experiment.BindK},
			Build:    buildQC,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
			Kind: sweepserve.KindKConn, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed,
			Grid: sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}, Ps: []float64{0.7}, Xs: []float64{1, 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("server kconn differs from CrossSweep:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("cross radius binding", func(t *testing.T) {
		grid := experiment.Grid{Ks: []int{9}, Qs: []int{1}, Xs: []float64{0.2, 0.35}}
		want, err := experiment.CrossSweep(ctx, grid, cfg, experiment.CrossSpec{
			Bindings: []experiment.XBinding{experiment.BindDiskRadius},
			K:        2,
			Build: func(pt experiment.GridPoint) (wsn.Config, error) {
				scheme, err := keys.NewQComposite(testPool, pt.K, pt.Q)
				if err != nil {
					return wsn.Config{}, err
				}
				return wsn.Config{Sensors: testSensors, Scheme: scheme}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
			Kind: sweepserve.KindCross, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed, Binding: "radius", K: 2,
			Grid: sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}, Xs: []float64{0.2, 0.35}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("server cross differs from CrossSweep:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("mindegree", func(t *testing.T) {
		grid := experiment.Grid{Ks: []int{6, 9}, Qs: []int{1}, Ps: []float64{0.6}}
		want, err := experiment.SweepMinDegree(ctx, grid, cfg, 2, buildQC)
		if err != nil {
			t.Fatal(err)
		}
		got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
			Kind: sweepserve.KindMinDegree, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed, K: 2,
			Grid: sweepserve.GridSpec{Ks: []int{6, 9}, Qs: []int{1}, Ps: []float64{0.6}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("server mindegree differs from SweepMinDegree:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("campaign", func(t *testing.T) {
		timeline := "capture:4,fail:3"
		grid := experiment.Grid{Ks: []int{9}, Qs: []int{1}, Ps: []float64{0.7}, Xs: []float64{0, 4, 7}}
		spec := sweepserve.JobSpec{
			Kind: sweepserve.KindCampaign, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed, Timeline: timeline,
			Grid: sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}, Ps: []float64{0.7}, Xs: []float64{0, 4, 7}},
		}
		ack, err := env.client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := env.client.Wait(ctx, ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != sweepserve.StateDone {
			t.Fatalf("campaign job ended %s: %s", st.State, st.Error)
		}
		jr, err := env.client.Result(ctx, ack.ID)
		if err != nil {
			t.Fatal(err)
		}

		tl, err := adversary.ParseTimeline(timeline)
		if err != nil {
			t.Fatal(err)
		}
		want, err := experiment.SweepCampaign(ctx, grid, cfg, experiment.CampaignSpec{
			Timeline: tl,
			Build:    buildQC,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(jr.VecPoints) != len(want) {
			t.Fatalf("campaign result has %d points, want %d", len(jr.VecPoints), len(want))
		}
		for i, vp := range jr.VecPoints {
			for j, comp := range vp.Values {
				if comp.Mean != want[i].Values[j].Mean() {
					t.Errorf("point %d component %d mean %v, want %v", i, j, comp.Mean, want[i].Values[j].Mean())
				}
			}
		}
	})
}

// TestSSEEvents reads the event stream of a job end to end: at least one
// progress event, a terminal "done" event, stream closes.
func TestSSEEvents(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()
	ack, err := env.client.Submit(ctx, connectivitySpec([]int{6, 9}, []float64{0.4, 0.8}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := env.http.Client().Get(env.http.URL + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events endpoint Content-Type %q", ct)
	}
	events := []string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
	}
	if len(events) == 0 {
		t.Fatal("no SSE events received")
	}
	if last := events[len(events)-1]; last != "done" {
		t.Errorf("final event %q, want \"done\" (events: %v)", last, events)
	}
	for _, e := range events[:len(events)-1] {
		if e != "progress" {
			t.Errorf("non-terminal event %q, want \"progress\"", e)
		}
	}
}

// BenchmarkServerDedup measures the service's caching arc over HTTP: the
// first iteration computes the grid cold, every later identical submission
// resolves fully from the shared store — so per-op cost converges to pure
// orchestration overhead (submit + poll + fetch), not simulation.
func BenchmarkServerDedup(b *testing.B) {
	m := sweepserve.NewManager(sweepserve.Options{})
	srv := httptest.NewServer(sweepserve.NewServer(m))
	defer func() {
		srv.Close()
		m.Close()
	}()
	client := &sweepserve.Client{Base: srv.URL, HTTP: srv.Client(), Poll: time.Millisecond}
	spec := connectivitySpec([]int{6, 9}, []float64{0.3, 0.5, 0.7, 0.9})
	ctx := context.Background()

	b.ResetTimer()
	for b.Loop() {
		if _, err := client.RunProportion(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := m.Store().Stats()
	b.ReportMetric(float64(st.Hits)/float64(b.N), "cachehits/op")
	if st.Misses != 8 {
		b.Fatalf("store misses = %d, want 8 (grid computed once, ever)", st.Misses)
	}
}
