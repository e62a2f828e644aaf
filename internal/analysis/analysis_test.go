package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spammass/internal/analysis"
	"spammass/internal/analysis/analysistest"
)

// Golden tests: each analyzer against its fixture package under
// testdata/src. Every fixture mixes positive cases (want comments),
// negative cases (clean idioms), and a lint:ignore suppression.

func TestSliceExportGolden(t *testing.T) { analysistest.Run(t, "sliceexport", analysis.SliceExport) }

func TestFloatCmpGolden(t *testing.T) { analysistest.Run(t, "floatcmp", analysis.FloatCmp) }

func TestSpanEndGolden(t *testing.T) { analysistest.Run(t, "spanend", analysis.SpanEnd) }

func TestMetricNameGolden(t *testing.T) { analysistest.Run(t, "metricname", analysis.MetricName) }

func TestLockBalGolden(t *testing.T) { analysistest.Run(t, "lockbal", analysis.LockBal) }

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

// TestAllAnalyzersRegistered pins the suite exactly: All is this name
// list, DefaultRules covers every analyzer in it, and each one has a
// golden fixture with at least one positive case. Adding or dropping
// an analyzer means editing this test.
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{"sliceexport", "floatcmp", "spanend", "metricname", "lockbal"}
	var got []string
	for _, a := range analysis.All() {
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("All() = %v, want %v", got, want)
	}
	ruled := map[string]bool{}
	for _, r := range analysis.DefaultRules() {
		ruled[r.Analyzer.Name] = true
	}
	if len(ruled) != len(want) {
		t.Errorf("DefaultRules covers %d analyzers, want %d", len(ruled), len(want))
	}
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	for _, name := range want {
		if !ruled[name] {
			t.Errorf("analyzer %s is in All() but has no default rule", name)
		}
		files, _ := filepath.Glob(filepath.Join(root, "internal", "analysis", "testdata", "src", name, "*.go"))
		positive := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			positive = positive || strings.Contains(string(src), "// want ")
		}
		if !positive {
			t.Errorf("analyzer %s has no testdata/src/%s fixture with a // want line", name, name)
		}
	}
}
