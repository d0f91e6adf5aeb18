package tcppuzzles

import (
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"testing"
)

// TestPackageDocLinksExist keeps the package documentation honest: every
// Markdown file it points readers to must exist, relative to the
// repository root.
func TestPackageDocLinksExist(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "tcppuzzles.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	links := regexp.MustCompile(`[\w./-]+\.md\b`).FindAllString(f.Doc.Text(), -1)
	if len(links) == 0 {
		t.Fatal("package doc names no Markdown files")
	}
	for _, path := range links {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("package doc names %s: %v", path, err)
		}
	}
}
