// Package analysis is spamlint's static-analysis framework: a
// stdlib-only (go/parser + go/types, no x/tools) loader and runner for
// repo-specific analyzers that mechanically enforce the numerical-
// safety and telemetry invariants of the spam-mass pipeline.
//
// Each Analyzer inspects one type-checked package at a time and
// reports Diagnostics through its Pass. The Runner applies a rule set
// (which analyzers run on which import paths), filters findings
// suppressed by `// lint:ignore <analyzer> <reason>` comments, and
// returns the surviving diagnostics in deterministic order.
//
// The analyzers shipped with the package target bug classes this repo
// has actually had to fix or suppress: returned-slice aliasing
// (sliceexport), exact float comparison (floatcmp), spans left open on
// early returns (spanend), malformed metric names (metricname), and
// unbalanced or blocking-held mutexes (lockbal).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static-analysis pass. Run inspects a single package
// and reports findings via pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `// lint:ignore <name> <reason>` suppression comments.
	Name string
	// Doc is a one-line description of the invariant the analyzer
	// guards, shown by `spamlint -list`.
	Doc string
	// Run inspects pass.Files and reports diagnostics.
	Run func(pass *Pass)
}

// Pass carries one package's syntax and type information to an
// analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's parsed syntax (build-tag filtered,
	// non-test files only).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info

	report func(Diagnostic)
	// funcs shares CFG state (FuncInfo) across the analyzers
	// run over one package; see Pass.FuncInfo.
	funcs *funcCache
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding, located in the file set the package was
// parsed with.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string

	// Suppressed marks a finding covered by a lint:ignore directive;
	// SuppressReason carries the directive's written justification.
	// Run filters suppressed findings out; RunAll keeps them, so tools
	// (spamlint -json) can audit every suppression in the module.
	Suppressed     bool
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}
