// Package cover is the coverage-observability layer of the virtual
// prototype: where internal/obs answers "where did tainted data flow?" and
// internal/trace answers "what did the simulator do?", this package answers
// "what did this run actually exercise?". It provides three coordinated
// views:
//
//   - GuestCov: basic-block and edge coverage of the guest program built on
//     the flight recorder's retire stream, with per-function percentages
//     from the image symbol table, an lcov-style .info export, and an
//     annotated-disassembly text report.
//   - TaintCov: per-byte memory taint heatmaps (ever-tainted bitmap, taint
//     churn counters, per-class residency) and per-register taint-occupancy
//     statistics, rendered as a compact address-range heat report.
//   - PolicyAudit: a report over the platform's lattice and enforcement
//     counter sets — per-lattice-edge LUB/AllowedFlow hits and
//     per-clearance-point check/violation counts — with a dead-rule report
//     flagging IFP classes and clearance rules a run never exercised.
//
// A platform built without a Cover (or with unused views left nil) pays
// nothing for it: GuestCov is a stream subscriber the platform only adds
// when requested, TaintCov rides on the VP+ core's one nil-guarded
// post-retire hook, and the audit's counter sets are installed only with
// it (or an observer) attached — the contract the benchmark's toggle rows
// price.
package cover

// Cover bundles the enabled views. Leave a field nil to disable that view;
// a zero Cover is valid and records nothing.
type Cover struct {
	Guest *GuestCov
	Taint *TaintCov
	Audit *PolicyAudit
}

// New returns a Cover with all three views enabled. The views size their
// buffers when the platform configures them at wiring time.
func New() *Cover {
	return &Cover{Guest: NewGuest(), Taint: NewTaint(), Audit: NewAudit()}
}

// Active reports whether any view is enabled.
func (c *Cover) Active() bool {
	return c != nil && (c.Guest != nil || c.Taint != nil || c.Audit != nil)
}
