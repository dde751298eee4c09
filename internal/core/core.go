// Package core is the library's façade for the paper's primary
// contribution: k-connectivity analysis of secure wireless sensor networks
// under q-composite key predistribution with on/off channels.
//
// A Model fixes the five parameters (n, K, P, q, p) of the random graph
// G_{n,q}(n, K_n, P_n, p_n) = G_q(n, K_n, P_n) ∩ G(n, p_n) from Section II
// of the paper, and exposes:
//
//   - the exact finite-n link probabilities s and t (eqs. (3)–(5));
//   - Theorem 1's asymptotic k-connectivity probability and the α_n
//     deviation it is driven by (eqs. (6)–(8));
//   - Monte Carlo estimation of P[k-connected], P[min degree ≥ k], and
//     degree-count distributions on sampled topologies;
//   - the design rules: the eq. (9) connectivity threshold K* and minimum
//     ring sizes achieving a target k-connectivity probability.
//
// Sampling and estimation run on the simulator every command uses: a
// wsn.Deployer with the q-composite scheme and on/off channels. Estimates
// run across a worker pool with per-trial seed streams, so every number is
// reproducible from (Model, Seed) alone.
package core

import (
	"context"
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/stats"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// Model is the parameterisation of the secure WSN graph
// G_{n,q}(n, K, P, p).
type Model struct {
	// N is the number of sensors.
	N int
	// K is the key ring size K_n.
	K int
	// P is the key pool size P_n.
	P int
	// Q is the required key overlap q ≥ 1.
	Q int
	// ChannelOn is the on/off channel probability p_n ∈ (0, 1].
	ChannelOn float64
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	switch {
	case m.N < 0:
		return fmt.Errorf("core: negative sensor count %d", m.N)
	case m.Q < 1:
		return fmt.Errorf("core: overlap requirement q=%d must be ≥ 1", m.Q)
	case m.K < m.Q:
		return fmt.Errorf("core: ring size %d below overlap requirement q=%d", m.K, m.Q)
	case m.P < m.K:
		return fmt.Errorf("core: pool size %d below ring size %d", m.P, m.K)
	case math.IsNaN(m.ChannelOn) || m.ChannelOn <= 0 || m.ChannelOn > 1:
		return fmt.Errorf("core: channel-on probability %v outside (0,1]", m.ChannelOn)
	}
	return nil
}

// String renders the model in the paper's notation.
func (m Model) String() string {
	return fmt.Sprintf("G_{n,%d}(n=%d, K=%d, P=%d, p=%g)", m.Q, m.N, m.K, m.P, m.ChannelOn)
}

// KeyShareProbability returns s(K, P, q) — eqs. (3)–(4).
func (m Model) KeyShareProbability() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return theory.KeyShareProb(m.P, m.K, m.Q)
}

// EdgeProbability returns t(K, P, q, p) = p·s — eq. (5).
func (m Model) EdgeProbability() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return theory.EdgeProb(m.P, m.K, m.Q, m.ChannelOn)
}

// Alpha returns the deviation α_n of eq. (6) for the given k.
func (m Model) Alpha(k int) (float64, error) {
	t, err := m.EdgeProbability()
	if err != nil {
		return 0, err
	}
	return theory.Alpha(m.N, t, k)
}

// TheoreticalKConnProb returns Theorem 1's asymptotic probability that the
// model graph is k-connected (eq. (7)) evaluated at the finite parameters.
func (m Model) TheoreticalKConnProb(k int) (float64, error) {
	alpha, err := m.Alpha(k)
	if err != nil {
		return 0, err
	}
	return theory.KConnProbLimit(alpha, k)
}

// TheoreticalMinDegProb returns Lemma 8's asymptotic probability that the
// minimum degree is at least k — the same limit as TheoreticalKConnProb.
func (m Model) TheoreticalMinDegProb(k int) (float64, error) {
	alpha, err := m.Alpha(k)
	if err != nil {
		return 0, err
	}
	return theory.MinDegreeProbLimit(alpha, k)
}

// ExpectedDegree returns the mean node degree (n−1)·t.
func (m Model) ExpectedDegree() (float64, error) {
	t, err := m.EdgeProbability()
	if err != nil {
		return 0, err
	}
	return theory.ExpectedDegree(m.N, t), nil
}

// PoissonDegreeCountMean returns λ_{n,h}, Lemma 9's asymptotic mean number
// of degree-h nodes.
func (m Model) PoissonDegreeCountMean(h int) (float64, error) {
	t, err := m.EdgeProbability()
	if err != nil {
		return 0, err
	}
	return theory.PoissonNodeCountMean(m.N, t, h)
}

// deployerPool returns a wsn.DeployerPool that deploys the model graph:
// q-composite key rings over independent on/off channels.
func (m Model) deployerPool() (*wsn.DeployerPool, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	scheme, err := keys.NewQComposite(m.P, m.K, m.Q)
	if err != nil {
		return nil, err
	}
	return wsn.NewDeployerPool(wsn.Config{Sensors: m.N, Scheme: scheme, Channel: channel.OnOff{P: m.ChannelOn}})
}

// Sample draws one topology G_{n,q}(n, K, P, p).
func (m Model) Sample(r *rng.Rand) (*graph.Undirected, error) {
	pool, err := m.deployerPool()
	if err != nil {
		return nil, err
	}
	net, err := pool.Get().DeployRand(r)
	if err != nil {
		return nil, err
	}
	return net.FullSecureTopology(), nil
}

// EstimateConfig controls Monte Carlo estimation.
type EstimateConfig struct {
	// Trials is the number of sampled topologies (the paper uses 500).
	Trials int
	// Workers bounds parallelism; 0 = all CPUs.
	Workers int
	// Seed makes the estimate reproducible.
	Seed uint64
}

// estimate runs cfg.Trials trials of test, each on a Deployer borrowed from
// one pool shared by every worker.
func (m Model) estimate(ctx context.Context, cfg EstimateConfig, test func(d *wsn.Deployer, r *rng.Rand) (bool, error)) (stats.Proportion, error) {
	pool, err := m.deployerPool()
	if err != nil {
		return stats.Proportion{}, err
	}
	return montecarlo.EstimateProportion(ctx, montecarlo.Config(cfg),
		func(trial int, r *rng.Rand) (bool, error) {
			d := pool.Get()
			defer pool.Put(d)
			return test(d, r)
		})
}

// EstimateKConnectivity estimates P[G_{n,q} is k-connected] by sampling
// cfg.Trials topologies (the empirical quantity of the paper's Figure 1,
// generalised to any k). At k = 1 each trial streams its edges into a
// union-find instead of building the graph.
func (m Model) EstimateKConnectivity(ctx context.Context, k int, cfg EstimateConfig) (stats.Proportion, error) {
	return m.estimate(ctx, cfg, func(d *wsn.Deployer, r *rng.Rand) (bool, error) {
		if k == 1 {
			st, err := d.DeployConnectivityRand(r)
			// IsKConnected calls no graph on n ≤ 1 sensors 1-connected;
			// the union-find calls it connected.
			return st.Connected && m.N > 1, err
		}
		net, err := d.DeployRand(r)
		if err != nil {
			return false, err
		}
		return net.IsKConnected(k)
	})
}

// EstimateConnectivity is EstimateKConnectivity with k = 1: the empirical
// probability plotted in Figure 1.
func (m Model) EstimateConnectivity(ctx context.Context, cfg EstimateConfig) (stats.Proportion, error) {
	return m.EstimateKConnectivity(ctx, 1, cfg)
}

// EstimateMinDegreeAtLeast estimates P[minimum degree ≥ k] (Lemma 8's
// quantity), the upper-bounding property in the paper's proof strategy.
// Each trial streams its edges into a degree accumulator.
func (m Model) EstimateMinDegreeAtLeast(ctx context.Context, k int, cfg EstimateConfig) (stats.Proportion, error) {
	return m.estimate(ctx, cfg, func(d *wsn.Deployer, r *rng.Rand) (bool, error) {
		// MinDegree is min(level, true minimum degree), so it answers
		// "≥ k" for every k, including k < 0 and n = 0.
		st, err := d.DeployDegreeStatsRand(r, max(k, 0))
		return st.MinDegree >= k, err
	})
}

// DegreeCountDistribution samples the number of degree-h nodes across
// cfg.Trials topologies and returns the per-trial counts (Lemma 9's
// asymptotically-Poisson statistic).
func (m Model) DegreeCountDistribution(ctx context.Context, h int, cfg EstimateConfig) ([]int, error) {
	pool, err := m.deployerPool()
	if err != nil {
		return nil, err
	}
	if h < 0 {
		return nil, fmt.Errorf("core: negative degree %d", h)
	}
	vals, err := montecarlo.Collect(ctx, montecarlo.Config(cfg),
		func(trial int, r *rng.Rand) (float64, error) {
			d := pool.Get()
			defer pool.Put(d)
			net, err := d.DeployRand(r)
			if err != nil {
				return 0, err
			}
			g := net.FullSecureTopology()
			count := 0
			for v := int32(0); int(v) < g.N(); v++ {
				if g.Degree(v) == h {
					count++
				}
			}
			return float64(count), nil
		})
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(vals))
	for i, v := range vals {
		counts[i] = int(v)
	}
	return counts, nil
}

// ThresholdK returns the paper's eq. (9) design threshold: the minimum ring
// size K* with t(K*, P, q, p) > ln n / n, computed with the exact edge
// probability.
func ThresholdK(n, pool, q int, pOn float64) (int, error) {
	return theory.ThresholdRingSize(n, pool, q, pOn)
}

// ThresholdKAsymptotic is ThresholdK with s replaced by its Lemma 2
// asymptotic — the computation matching the paper's published values.
func ThresholdKAsymptotic(n, pool, q int, pOn float64) (int, error) {
	return theory.ThresholdRingSizeAsymptotic(n, pool, q, pOn)
}

// DesignK returns the smallest ring size whose Theorem 1 k-connectivity
// probability reaches target — the paper's "precise design guideline".
func DesignK(n, pool, q int, pOn float64, k int, target float64) (int, error) {
	return theory.DesignRingSize(n, pool, q, pOn, k, target)
}
