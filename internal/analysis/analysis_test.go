package analysis_test

import (
	"testing"

	"spammass/internal/analysis"
	"spammass/internal/analysis/analysistest"
)

// Golden tests: each analyzer against its fixture package under
// testdata/src. Every fixture mixes positive cases (want comments),
// negative cases (clean idioms), and a lint:ignore suppression.

func TestSliceExportGolden(t *testing.T) { analysistest.Run(t, "sliceexport", analysis.SliceExport) }

func TestFloatCmpGolden(t *testing.T) { analysistest.Run(t, "floatcmp", analysis.FloatCmp) }

func TestSolveErrGolden(t *testing.T) { analysistest.Run(t, "solveerr", analysis.SolveErr) }

func TestSpanEndGolden(t *testing.T) { analysistest.Run(t, "spanend", analysis.SpanEnd) }

func TestPrintCallGolden(t *testing.T) { analysistest.Run(t, "printcall", analysis.PrintCall) }

func TestMetricNameGolden(t *testing.T) { analysistest.Run(t, "metricname", analysis.MetricName) }

func TestPublishFreezeGolden(t *testing.T) {
	analysistest.Run(t, "publishfreeze", analysis.PublishFreeze)
}

func TestLockBalGolden(t *testing.T) { analysistest.Run(t, "lockbal", analysis.LockBal) }

func TestAtomicMixGolden(t *testing.T) { analysistest.Run(t, "atomicmix", analysis.AtomicMix) }

func TestCtxLeakGolden(t *testing.T) { analysistest.Run(t, "ctxleak", analysis.CtxLeak) }

func TestSyncRenameGolden(t *testing.T) { analysistest.Run(t, "syncrename", analysis.SyncRename) }

// TestModuleIsClean is the lint gate as a test: the default rule set
// over the whole module must produce zero diagnostics. Any new finding
// must be fixed or carry a written lint:ignore reason.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatalf("building loader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("loaded only %d packages; loader is missing most of the module", len(pkgs))
	}
	for _, d := range analysis.Run(analysis.DefaultRules(), pkgs) {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestAllAnalyzersRegistered pins the suite: DefaultRules must cover
// every analyzer in All, so `make lint` cannot silently drop one.
func TestAllAnalyzersRegistered(t *testing.T) {
	ruled := map[string]bool{}
	for _, r := range analysis.DefaultRules() {
		ruled[r.Analyzer.Name] = true
	}
	for _, a := range analysis.All() {
		if !ruled[a.Name] {
			t.Errorf("analyzer %s is in All() but has no default rule", a.Name)
		}
	}
	if len(analysis.All()) < 11 {
		t.Errorf("expected at least 11 analyzers, have %d", len(analysis.All()))
	}
}
