package baselines

import (
	"dhtm/internal/htm"
	"dhtm/internal/txn"
)

// NP is the non-persistent baseline: a volatile, RTM-like best-effort HTM
// with no logging and no durability (§VI.D uses it to quantify the cost of
// atomic durability).
type NP struct {
	*htmBase
}

// NewNP builds the NP runtime and installs its arbiter.
func NewNP(env *txn.Env) *NP {
	n := &NP{htmBase: newHTMBase(env, false)}
	n.Hooks = htm.Hooks{Commit: n.commit}
	return n
}

// Name implements txn.Runtime.
func (n *NP) Name() string { return "NP" }

// commit is the volatile commit: flash-clear the tracking bits; nothing to
// persist.
func (n *NP) commit(core int, c txn.Clock) bool {
	n.commitVisibility(core)
	c.Advance(n.Cfg.L1Latency)
	return true
}
