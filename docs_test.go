package lmc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests keeps the documents' test references from
// drifting: every Test…, Benchmark… and Fuzz… name that README.md, DESIGN.md
// or EXPERIMENTS.md cites is a func in some _test.go file of the tree. A
// cited name ending in * stands for every func it prefixes, and at least one
// must exist.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := make(map[string]bool)
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	citedRE := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*\*?`)
	cited := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedRE.FindAllString(string(text), -1) {
			cited++
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				if !anyHasPrefix(defined, prefix) {
					t.Errorf("%s cites %s, and no test func starts with %s", doc, name, prefix)
				}
			} else if !defined[name] {
				t.Errorf("%s cites %s, which is no test func in the tree", doc, name)
			}
		}
	}
	if cited == 0 {
		t.Fatal("the documents cite no test at all: the pattern no longer matches how they cite")
	}
}

func anyHasPrefix(names map[string]bool, prefix string) bool {
	for name := range names {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
