package analysis

import (
	"sort"
	"strings"
)

// Rule binds an analyzer to the import paths it applies to.
type Rule struct {
	Analyzer *Analyzer
	// Include restricts the rule to packages whose import path equals
	// or is under one of these prefixes. Empty means every package.
	Include []string
	// Exclude removes packages whose import path equals or is under
	// one of these prefixes, after Include.
	Exclude []string
}

func (r Rule) applies(path string) bool {
	match := func(prefixes []string) bool {
		for _, p := range prefixes {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
	if len(r.Include) > 0 && !match(r.Include) {
		return false
	}
	return !match(r.Exclude)
}

// DefaultRules is the rule set `make lint` enforces on this module:
// every analyzer, scoped to where its invariant is load-bearing.
func DefaultRules() []Rule {
	return []Rule{
		// Aliasing, telemetry and lock-balance invariants hold
		// module-wide.
		{Analyzer: SliceExport},
		{Analyzer: SpanEnd},
		{Analyzer: LockBal},
		// Exact float comparison is only policed in the numerical core,
		// where a spurious equality skews M̃ = p − p'.
		{Analyzer: FloatCmp, Include: []string{
			"spammass/internal/pagerank",
			"spammass/internal/mass",
			"spammass/internal/trustrank",
		}},
		// Metric names follow the subsystem.name_unit convention
		// everywhere metrics are created. The obs package itself is
		// excluded: its Context methods forward caller-supplied names
		// to the Registry, which is exactly the non-literal pattern the
		// analyzer rejects at real creation sites.
		{Analyzer: MetricName, Exclude: []string{"spammass/internal/obs"}},
	}
}

// Run applies the rules to the packages and returns the diagnostics
// that survive lint:ignore suppression, sorted by position.
func Run(rules []Rule, pkgs []*Package) []Diagnostic {
	all := RunAll(rules, pkgs)
	out := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunAll is Run without the suppression filter: every diagnostic is
// returned, with suppressed findings annotated with their lint:ignore
// reason. The order is deterministic (file, line, column, analyzer,
// message) so successive reports diff cleanly.
func RunAll(rules []Rule, pkgs []*Package) []Diagnostic {
	known := map[string]bool{}
	for _, r := range rules {
		known[r.Analyzer.Name] = true
	}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	var idx ignoreIndex
	for _, pkg := range pkgs {
		if pkg == nil {
			continue
		}
		pkgIdx := collectIgnores(pkg.Fset, pkg.Files, known, report)
		if idx == nil {
			idx = pkgIdx
		} else {
			for f, lines := range pkgIdx {
				idx[f] = lines
			}
		}
		// One flow-analysis cache per package: every analyzer sees the
		// same FuncInfo (CFG + dataflow) instances.
		cache := newFuncCache()
		for _, r := range rules {
			if !r.applies(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: r.Analyzer,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   report,
				funcs:    cache,
			}
			r.Analyzer.Run(pass)
		}
	}
	out := diags
	for i := range out {
		if dir := idx.directive(out[i]); dir != nil {
			out[i].Suppressed = true
			out[i].SuppressReason = dir.reason
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
