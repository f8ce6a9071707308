package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture type-checks one package under testdata/src with the tree
// loader (so the fake "sim" package resolves).
func loadFixture(t *testing.T, pkg string) *Package {
	t.Helper()
	loader := NewTreeLoader("testdata/src")
	p, err := loader.LoadDir(filepath.Join("testdata", "src", pkg), pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}
	return p
}

// wantMarkers scans a fixture file for "// want:<analyzer>" trailing
// comments and returns the expected "line:analyzer" findings.
func wantMarkers(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	defer f.Close()
	want := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if _, rest, ok := strings.Cut(sc.Text(), "// want:"); ok {
			name := strings.Fields(rest)[0]
			want[fmt.Sprintf("%d:%s", line, name)] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning fixture: %v", err)
	}
	return want
}

// gotKeys renders diagnostics as "line:analyzer" for set comparison.
func gotKeys(diags []Diagnostic) map[string]bool {
	got := map[string]bool{}
	for _, d := range diags {
		got[fmt.Sprintf("%d:%s", d.Pos.Line, d.Analyzer)] = true
	}
	return got
}

func diffSets(t *testing.T, want, got map[string]bool, diags []Diagnostic) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("missing expected finding at %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding at %s", k)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}

// TestAnalyzerFixtures checks, for each analyzer, that it fires exactly on
// the seeded violations (marked "// want:<analyzer>") and stays silent on
// the idiomatic counterparts in the same file.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		pkg      string
		analyzer *Analyzer
	}{
		{"unitsfix", Units},
		{"clockbad", Wallclock},
		{"errbad", Errcheck},
		{"panicbad", Panicmsg},
		{"mapiterbad", Mapiter},
		{"goroutinebad", Goroutine},
		{"locksbad", Locks},
	}
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			p := loadFixture(t, tc.pkg)
			want := wantMarkers(t, filepath.Join("testdata", "src", tc.pkg, tc.pkg+".go"))
			if len(want) == 0 {
				t.Fatal("fixture has no want markers; test would pass vacuously")
			}
			diags := Run([]*Package{p}, []*Analyzer{tc.analyzer})
			diffSets(t, want, gotKeys(diags), diags)
		})
	}
}

// TestPanicmsgExemptsCommands checks that main packages may panic without a
// package prefix.
func TestPanicmsgExemptsCommands(t *testing.T) {
	p := loadFixture(t, "panicmain")
	if diags := Run([]*Package{p}, []*Analyzer{Panicmsg}); len(diags) != 0 {
		t.Errorf("panicmsg fired in a main package: %v", diags)
	}
}

// TestUnitsExemptsSimPackage checks that the converter implementations in
// package sim may convert raw.
func TestUnitsExemptsSimPackage(t *testing.T) {
	p := loadFixture(t, "sim")
	if diags := Run([]*Package{p}, []*Analyzer{Units}); len(diags) != 0 {
		t.Errorf("units fired inside package sim: %v", diags)
	}
}

// TestGoroutineScope checks the goroutine analyzer's scope by import path:
// the seeded violations fire in internal/ and at the module root, and stay
// silent under cmd/, examples/ and benchmark/, tests included.
func TestGoroutineScope(t *testing.T) {
	dir := filepath.Join("testdata", "src", "goroutinebad")
	for _, tc := range []struct {
		path   string
		scoped bool
	}{
		{"rmssd/internal/model", true},
		{"rmssd/internal/bench_test", true},
		{"rmssd", true},
		{"rmssd/cmd/rmserve", false},
		{"rmssd/cmd/rmserve_test", false},
		{"rmssd/examples/quickstart", false},
		{"rmssd/benchmark", false},
	} {
		p, err := NewTreeLoader("testdata/src").LoadDir(dir, tc.path)
		if err != nil {
			t.Fatalf("loading fixture as %s: %v", tc.path, err)
		}
		if n := len(Run([]*Package{p}, []*Analyzer{Goroutine})); (n > 0) != tc.scoped {
			t.Errorf("fixture loaded as %s: %d findings, want findings %v", tc.path, n, tc.scoped)
		}
	}
}

// TestDirectives checks the //lint:allow paths: suppression on the same
// line and the line above, and malformed directives (unknown analyzer,
// missing reason, missing name) surfacing as "directive" diagnostics.
func TestDirectives(t *testing.T) {
	p := loadFixture(t, "directives")
	diags := Run([]*Package{p}, []*Analyzer{Wallclock})
	want := map[string]bool{
		"17:directive": true, // unknown analyzer "nosuch"
		"19:directive": true, // missing reason
		"21:directive": true, // missing analyzer name
		"24:wallclock": true, // unsuppressed time.Now
	}
	diffSets(t, want, gotKeys(diags), diags)
}

// TestAllowAudit checks the suppression audit: a live directive stays
// silent, a stale one is reported at its own position, and a stale one
// re-justified with a companion //lint:allow allowaudit directive is
// accepted.
func TestAllowAudit(t *testing.T) {
	p := loadFixture(t, "allowstale")
	want := wantMarkers(t, filepath.Join("testdata", "src", "allowstale", "allowstale.go"))
	if len(want) == 0 {
		t.Fatal("fixture has no want markers; test would pass vacuously")
	}
	diags := Run([]*Package{p}, []*Analyzer{Wallclock, AllowAudit})
	diffSets(t, want, gotKeys(diags), diags)
}

// TestByName covers analyzer selection.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want the full suite", len(all), err)
	}
	two, err := ByName("wallclock, units")
	if err != nil || len(two) != 2 || two[0] != Wallclock || two[1] != Units {
		t.Fatalf("ByName(\"wallclock, units\") = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(\"nosuch\") succeeded; want an error")
	}
}

// TestRepositoryIsLintClean dogfoods the whole suite over the real module:
// the tree must stay free of findings, so the rmlint CI gate cannot rot.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := LoadPatterns(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern walk is broken", len(pkgs))
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}
