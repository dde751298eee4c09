package wsn

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
)

// TestConnectivityTrialAllocBudget is the alloc-budget regression gate on
// the connectivity trial loops (the BenchmarkDeployPipeline hot paths):
// after warm-up, a reused Deployer must answer connectivity with ZERO
// allocations per trial — on the CSR path (deploy + IsConnected; rng.Reseed
// removed its last allocation, the per-Deploy generator; the seed state ran
// it at ≈ 2,020 allocs per trial), on the streaming path
// (DeployConnectivity, whose persistent yield closure keeps the
// channel.Model interface crossing allocation-free), and on the streaming
// degree path (DeployDegreeStats, same closure discipline with the degree
// accumulator riding beside the union-find). The Figure 1 points at p = 0.5
// and p = 1 take the row index, the second key-first; a ladder-rung density
// (sparse channel) keeps every mode on the batched Intersector, so each
// strategy is gated on every sink.
func TestConnectivityTrialAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs the full n=1000 deployment")
	}
	scheme, err := keys.NewQComposite(10000, 41, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployer(Config{Sensors: 1000, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewDeployer(Config{Sensors: 1000, Scheme: scheme, Channel: channel.OnOff{P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ladderScheme, err := keys.NewQComposite(512, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := NewDeployer(Config{Sensors: 1000, Scheme: ladderScheme,
		Channel: channel.OnOff{P: 8 * math.Log(1000) / (0.594 * 1000)}})
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	trials := map[string]func(){
		"csr": func() {
			seed++
			net, err := d.Deploy(seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.IsConnected(); err != nil {
				t.Fatal(err)
			}
		},
		"streaming": func() {
			seed++
			if _, err := d.DeployConnectivity(seed); err != nil {
				t.Fatal(err)
			}
		},
		"streaming-degrees": func() {
			seed++
			if _, err := d.DeployDegreeStats(seed, 2); err != nil {
				t.Fatal(err)
			}
		},
		"csr-p1": func() {
			seed++
			net, err := p1.Deploy(seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.IsConnected(); err != nil {
				t.Fatal(err)
			}
		},
		"streaming-p1": func() {
			seed++
			if _, err := p1.DeployConnectivity(seed); err != nil {
				t.Fatal(err)
			}
		},
		"streaming-degrees-p1": func() {
			seed++
			if _, err := p1.DeployDegreeStats(seed, 2); err != nil {
				t.Fatal(err)
			}
		},
		"csr-intersector": func() {
			seed++
			net, err := ladder.Deploy(seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.IsConnected(); err != nil {
				t.Fatal(err)
			}
		},
		"streaming-intersector": func() {
			seed++
			if _, err := ladder.DeployConnectivity(seed); err != nil {
				t.Fatal(err)
			}
		},
		"streaming-degrees-intersector": func() {
			seed++
			if _, err := ladder.DeployDegreeStats(seed, 2); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, trial := range trials {
		t.Run(name, func(t *testing.T) {
			// Warm up so every amortized buffer has grown to its working size.
			for i := 0; i < 8; i++ {
				trial()
			}
			if avg := testing.AllocsPerRun(20, trial); avg != 0 {
				t.Errorf("%s connectivity trial allocates %.1f allocs/run, want 0", name, avg)
			}
		})
	}
	if !d.rowIndex || d.keyFirst || !p1.keyFirst || ladder.rowIndex {
		t.Errorf("row index %v, key-first %v at p = 0.5; key-first %v at p = 1; ladder row index %v; want true, false, true, false",
			d.rowIndex, d.keyFirst, p1.keyFirst, ladder.rowIndex)
	}
}
