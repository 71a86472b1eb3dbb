package main

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose command lines TestDocCommands
// checks, relative to the repository root.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	goRunRef   = regexp.MustCompile(`go run \./((?:cmd|examples)/[\w.-]+)`)
	codeSpan   = regexp.MustCompile("`[^`\n]+`")
	pathRef    = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|examples)/[\w.-]+(?:/[\w.-]+)*)`)
	compassSub = regexp.MustCompile(`(?:^|[\s/])compass +([a-z][\w-]*)`)
	mainClause = regexp.MustCompile(`(?m)^package main\b`)
)

// docCommandErrors lists the stale references in one document: a
// `go run` of a directory that holds no main package, a backticked
// cmd/ or examples/ path that does not exist, and a `compass <sub>` in
// code that names no subcommand. root is the repository root.
func docCommandErrors(root, name, text string) []string {
	var errs []string
	for _, m := range goRunRef.FindAllStringSubmatch(text, -1) {
		if !isMainPackage(filepath.Join(root, m[1])) {
			errs = append(errs, name+": "+m[0]+" names no main package")
		}
	}
	// Code is what a reader types: fenced blocks and backticked spans.
	var code []string
	fenced := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code = append(code, line)
		default:
			for _, span := range codeSpan.FindAllString(line, -1) {
				code = append(code, strings.Trim(span, "`"))
				for _, m := range pathRef.FindAllStringSubmatch(span, -1) {
					if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
						errs = append(errs, name+": path "+m[1]+" does not exist")
					}
				}
			}
		}
	}
	for _, line := range code {
		for _, m := range compassSub.FindAllStringSubmatch(line, -1) {
			if subcommands[m[1]] == nil {
				errs = append(errs, name+": compass "+m[1]+" is not a subcommand")
			}
		}
	}
	return errs
}

// isMainPackage reports whether dir holds a non-test Go file of
// package main.
func isMainPackage(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if src, err := os.ReadFile(f); err == nil && mainClause.Match(src) {
			return true
		}
	}
	return false
}

// TestDocCommands holds the documents' command lines to the tree: each
// `go run` target is a main package, each backticked cmd/ or examples/
// path exists, and each `compass <sub>` names a subcommand. A planted
// stale reference must fail it.
func TestDocCommands(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, name := range docFiles {
		text, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range docCommandErrors(root, name, string(text)) {
			t.Error(e)
		}
	}
	for _, planted := range []string{
		"run `go run ./cmd/pcc -ranks 8`",
		"```\ngo run ./examples/charrec\n```",
		"see `cmd/benchsuite/main.go:12`",
		"```\ncompass bench -list\n```",
		"`go run ./cmd/compass run -ticks 5`",
	} {
		if len(docCommandErrors(root, "planted", planted)) == 0 {
			t.Errorf("planted %q passed", planted)
		}
	}
}
