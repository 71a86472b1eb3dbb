package main

import (
	"bufio"
	"io/fs"
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
	pathRef    = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|examples|internal)/[\w.*<>-]+(?:/[\w.*<>-]+)*)`)
	stemRef    = regexp.MustCompile(`<[^>/]*>`)
	compassSub = regexp.MustCompile(`(?:^|[\s/])compass +([a-z][\w-]*)`)
	compassdRe = regexp.MustCompile(`(?:^|[\s/])compassd\s(.*)`)
	testRef    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	flagDef    = regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)(?:Var)?\((?:&[\w.]+, *)?"([\w-]+)"`)
	flagSpan   = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)$`)
	mainClause = regexp.MustCompile(`(?m)^package main\b`)
)

// goToolFlags are the Go tool's flags the documents cite as a bare span.
var goToolFlags = map[string]bool{"race": true}

// docTree is what the documents' references are checked against: the
// Test, Fuzz and Benchmark functions of every _test.go file under the
// root, the flags every package main under cmd/ and bench/ defines, and
// those of cmd/compassd alone.
type docTree struct {
	root          string
	tests         map[string]bool
	flags         map[string]bool
	compassdFlags map[string]bool
}

func loadDocTree(t *testing.T, root string) *docTree {
	t.Helper()
	// The flag package gives every program -h and -help.
	tree := &docTree{root: root, tests: map[string]bool{}, flags: map[string]bool{"h": true, "help": true},
		compassdFlags: map[string]bool{"h": true, "help": true}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		switch top, _, _ := strings.Cut(filepath.ToSlash(rel), "/"); {
		case strings.HasSuffix(path, "_test.go"):
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				tree.tests[string(m[1])] = true
			}
		case (top == "cmd" || top == "bench") && mainClause.Match(src):
			for _, m := range flagDef.FindAllSubmatch(src, -1) {
				tree.flags[string(m[1])] = true
				if filepath.Dir(rel) == filepath.Join("cmd", "compassd") {
					tree.compassdFlags[string(m[1])] = true
				}
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// docCommandErrors lists the stale references in one document: a
// `go run` of a directory that holds no main package, a backticked
// cmd/, examples/ or internal/ path that matches nothing (a <stem> in
// it is a wildcard), a backticked `-flag` or `--flag` span that no
// package main under cmd/ or bench/ defines, and, in code, a
// `compass <sub>` that names no
// subcommand, a `compassd -<flag>` that cmd/compassd does not define
// and a Test, Fuzz or Benchmark name that no _test.go defines.
func (tree *docTree) docCommandErrors(name, text string) []string {
	root := tree.root
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
				if m := flagSpan.FindStringSubmatch(strings.Trim(span, "`")); m != nil && !tree.flags[m[1]] && !goToolFlags[m[1]] {
					errs = append(errs, name+": flag "+m[0]+" is defined by no program")
				}
				for _, m := range pathRef.FindAllStringSubmatch(span, -1) {
					pattern := stemRef.ReplaceAllString(strings.TrimSuffix(m[1], "/..."), "*")
					if hits, _ := filepath.Glob(filepath.Join(root, pattern)); len(hits) == 0 {
						errs = append(errs, name+": path "+m[1]+" does not exist")
					}
				}
			}
		}
	}
	for _, line := range joinContinuations(code) {
		for _, m := range compassSub.FindAllStringSubmatch(line, -1) {
			if subcommands[m[1]] == nil {
				errs = append(errs, name+": compass "+m[1]+" is not a subcommand")
			}
		}
		if m := compassdRe.FindStringSubmatch(line); m != nil {
			for _, f := range compassdFlagArgs(m[1]) {
				if !tree.compassdFlags[f] {
					errs = append(errs, name+": compassd -"+f+" is not a flag")
				}
			}
		}
		for _, test := range testRef.FindAllString(line, -1) {
			if !tree.tests[test] {
				errs = append(errs, name+": "+test+" is no test function")
			}
		}
	}
	return errs
}

// joinContinuations strips shell comments from code lines and joins a
// line ending in a backslash with the next.
func joinContinuations(lines []string) []string {
	var out []string
	pending := ""
	for _, line := range lines {
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		}
		line = pending + strings.TrimSpace(line)
		if strings.HasSuffix(line, "\\") {
			pending = strings.TrimSuffix(line, "\\") + " "
			continue
		}
		pending = ""
		out = append(out, line)
	}
	if pending != "" {
		out = append(out, pending)
	}
	return out
}

// compassdFlagArgs returns the flag names among a compassd command
// line's arguments, up to the first shell operator. A negative number
// is a flag's value, not a flag.
func compassdFlagArgs(args string) []string {
	var flags []string
	for _, arg := range strings.Fields(args) {
		if strings.ContainsAny(arg[:1], "|&;>") {
			break
		}
		if len(arg) < 2 || arg[0] != '-' || (arg[1] >= '0' && arg[1] <= '9') {
			continue
		}
		f, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		flags = append(flags, f)
	}
	return flags
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

// TestDocCommands holds the documents' references to the tree: each
// `go run` target is a main package, each backticked cmd/, examples/
// or internal/ path exists, each backticked `-flag` names a flag of a
// program under cmd/ or bench/, each `compass <sub>` names a subcommand,
// each `compassd -<flag>` a flag of cmd/compassd, and each test name
// cited a test function. A planted stale reference must fail it.
func TestDocCommands(t *testing.T) {
	tree := loadDocTree(t, filepath.Join("..", ".."))
	for _, name := range docFiles {
		text, err := os.ReadFile(filepath.Join(tree.root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tree.docCommandErrors(name, string(text)) {
			t.Error(e)
		}
	}
	for _, planted := range []string{
		"run `go run ./cmd/pcc -ranks 8`",
		"```\ngo run ./examples/charrec\n```",
		"see `cmd/benchsuite/main.go:12`",
		"```\ncompass bench -list\n```",
		"`go run ./cmd/compass run -ticks 5`",
		"held by `TestReshapeDeterminism`",
		"see `internal/reshape/reshape.go`",
		"`go test -race ./internal/reshape/...`",
		"one file per transport, `internal/compass/transport_<name>.rs`",
		"```\ncompassd -listen :7474 \\  # control plane\n         -reshape-threshold 1.5\n```",
		"admission is bounded by `-capacity`",
	} {
		if len(tree.docCommandErrors("planted", planted)) == 0 {
			t.Errorf("planted %q passed", planted)
		}
	}
}
