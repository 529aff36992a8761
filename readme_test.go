package bandana_test

import (
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
		if !strings.Contains(line, "go test") {
			continue
		}
		var pkgs []string
		for _, field := range strings.Fields(line) {
			if readmePkgRE.MatchString(field) {
				pkgs = append(pkgs, field)
			}
		}
		for _, sel := range readmeSelectRE.FindAllStringSubmatch(line, -1) {
			kind, pattern := sel[1], sel[2]
			if pattern == "^$" { // the "no tests, only fuzz/bench" idiom
				continue
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Errorf("README.md:%d: -%s %q: %v", i+1, kind, pattern, err)
				continue
			}
			if len(pkgs) == 0 {
				t.Errorf("README.md:%d: -%s %q names no package", i+1, kind, pattern)
			}
			for _, pkg := range pkgs {
				matched := false
				for _, name := range funcs(pkg) {
					matched = matched || (strings.HasPrefix(name, prefix[kind]) && re.MatchString(name))
				}
				if !matched {
					t.Errorf("README.md:%d: -%s %q matches nothing in %s", i+1, kind, pattern, pkg)
				}
			}
		}
	}
}
