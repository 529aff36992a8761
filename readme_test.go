package bandana_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	readmePathRE   = regexp.MustCompile(`\./(?:cmd|examples|internal)/[\w-]+`)
	readmeSelectRE = regexp.MustCompile(`-(run|fuzz|bench)[ =]'([^']*)'`)
	readmePkgRE    = regexp.MustCompile(`^\.(?:/[\w-]+)*/?$`)
	readmeMetricRE = regexp.MustCompile(`bandana_[a-z0-9_]+`)
	testFuncRE     = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	readmeStaleRE  = regexp.MustCompile(`no longer|used to|previously|PR \d`)
)

// TestReadmeCommandsExist keeps README.md honest: every ./cmd, ./examples and
// ./internal path in a fenced block is a directory of this repository, every
// -run/-fuzz/-bench selector in a `go test` line matches a function in each
// package the line names, every bandana_* metric it mentions is registered,
// it describes the system in the present tense, and it stays at 500 lines.
// The `go test` lines of CI's workflow are held to the same selector check:
// a -run pattern that matches nothing passes silently.
func TestReadmeCommandsExist(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	if n := strings.Count(readme, "\n"); n > 500 {
		t.Errorf("README.md is %d lines, want <= 500", n)
	}
	if m := readmeStaleRE.FindString(readme); m != "" {
		t.Errorf("README.md narrates history (%q); describe the system that exists", m)
	}

	registered := ""
	for _, f := range []string{"internal/server/observability.go", "internal/cluster/observability.go"} {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		registered += string(src)
	}
	for _, name := range readmeMetricRE.FindAllString(readme, -1) {
		if !strings.Contains(registered, name) {
			t.Errorf("README.md names metric %s, which nothing registers", name)
		}
	}

	fenced := false
	for i, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			continue
		}
		for _, p := range readmePathRE.FindAllString(line, -1) {
			if st, err := os.Stat(p); err != nil || !st.IsDir() {
				t.Errorf("README.md:%d: %s is not a directory of this repository", i+1, p)
			}
		}
		checkSelectors(t, fmt.Sprintf("README.md:%d", i+1), line)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(ci), "\n") {
		checkSelectors(t, fmt.Sprintf("ci.yml:%d", i+1), line)
	}
}

// checkSelectors checks, when line is a `go test` command, that each of
// its -run/-fuzz/-bench selectors matches a function in each package the
// line names, and that each alternative of the selector's test pattern
// matches one in some package of the line, so that no name in it is stale.
// where is the line's place, for errors.
func checkSelectors(t *testing.T, where, line string) {
	t.Helper()
	if !strings.Contains(line, "go test") {
		return
	}
	// funcs returns the Test/Fuzz/Benchmark function names of a package dir.
	funcs := func(dir string) []string {
		files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		var names []string
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
		return names
	}
	prefix := map[string]string{"run": "Test", "fuzz": "Fuzz", "bench": "Benchmark"}

	var pkgs []string
	for _, field := range strings.Fields(line) {
		if readmePkgRE.MatchString(field) {
			pkgs = append(pkgs, field)
		}
	}
	// matches reports whether pattern matches a function of kind in pkg.
	matches := func(kind, pattern, pkg string) bool {
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Errorf("%s: -%s %q: %v", where, kind, pattern, err)
			return true
		}
		for _, name := range funcs(pkg) {
			if strings.HasPrefix(name, prefix[kind]) && re.MatchString(name) {
				return true
			}
		}
		return false
	}
	for _, sel := range readmeSelectRE.FindAllStringSubmatch(line, -1) {
		kind, pattern := sel[1], sel[2]
		if pattern == "^$" { // the "no tests, only fuzz/bench" idiom
			continue
		}
		if len(pkgs) == 0 {
			t.Errorf("%s: -%s %q names no package", where, kind, pattern)
		}
		for _, pkg := range pkgs {
			if !matches(kind, pattern, pkg) {
				t.Errorf("%s: -%s %q matches nothing in %s", where, kind, pattern, pkg)
			}
		}
		// The top-level test pattern is the part before the first slash.
		for _, alt := range strings.Split(strings.Split(pattern, "/")[0], "|") {
			found := false
			for _, pkg := range pkgs {
				found = found || matches(kind, alt, pkg)
			}
			if !found && len(pkgs) > 0 {
				t.Errorf("%s: -%s %q: %q matches nothing in %v", where, kind, pattern, alt, pkgs)
			}
		}
	}
}
