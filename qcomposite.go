// Package qcomposite analyses and simulates the secure connectivity of
// wireless sensor networks that use q-composite key predistribution over
// unreliable (on/off) channels, reproducing
//
//	Jun Zhao, "Secure connectivity of wireless sensor networks under key
//	predistribution with on/off channels", ICDCS 2017.
//
// The network topology is the random graph
//
//	G_{n,q}(n, K, P, p) = G_q(n, K, P) ∩ G(n, p)
//
// where G_q is the uniform q-intersection graph of the key scheme (each of
// n sensors holds K keys uniformly sampled from a pool of P; an edge needs
// ≥ q shared keys) and G(n, p) is the Erdős–Rényi graph of independent
// on/off channels.
//
// This root package re-exports the paper-facing façade: the Model type with
// exact link probabilities (eqs. (3)–(5)), Theorem 1's asymptotic
// k-connectivity probability (eqs. (6)–(8)), Monte Carlo estimation, and
// the design rules (eq. (9) threshold K*, minimum ring size for a target
// probability). Sampling and estimation run on the WSN simulator
// (internal/wsn), the same engine the executables in cmd/ use. The full
// substrate — graph algorithms, channel samplers, the simulator, and the
// node-capture adversary — lives under internal/ and is exercised by those
// executables and the runnable walkthroughs in examples/.
package qcomposite

import (
	"github.com/secure-wsn/qcomposite/internal/core"
)

// Model parameterises the secure WSN graph G_{n,q}(n, K, P, p).
// See core.Model for the full method set: probabilities, estimation,
// sampling.
type Model = core.Model

// EstimateConfig controls Monte Carlo estimation on a Model.
type EstimateConfig = core.EstimateConfig

// ThresholdK returns the paper's eq. (9) design threshold: the minimum ring
// size K* with t(K*, P, q, p) > ln n / n, using the exact edge probability.
func ThresholdK(n, pool, q int, pOn float64) (int, error) {
	return core.ThresholdK(n, pool, q, pOn)
}

// ThresholdKAsymptotic is ThresholdK computed with the Lemma 2 asymptotic
// for s — the variant matching the paper's published values.
func ThresholdKAsymptotic(n, pool, q int, pOn float64) (int, error) {
	return core.ThresholdKAsymptotic(n, pool, q, pOn)
}

// DesignK returns the smallest ring size whose Theorem 1 k-connectivity
// probability reaches target.
func DesignK(n, pool, q int, pOn float64, k int, target float64) (int, error) {
	return core.DesignK(n, pool, q, pOn, k, target)
}
