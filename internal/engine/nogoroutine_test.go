package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestStatementPathStartsNoGoroutine fails on any go statement in the
// packages a statement executes in. Pure operators stop a statement through
// govern.MustStep, which panics; the engine recovers that panic only on the
// statement's own goroutine, so a goroutine started here that steps the
// governor would crash the server on a cancel, deadline or budget trip.
func TestStatementPathStartsNoGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"ra", "relation", "engine", "sql", "withplus", "psm", "catalog", "storage"} {
		err := filepath.WalkDir(filepath.Join("..", pkg), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement on the statement path: govern.MustStep aborts by panicking, "+
						"which is recovered only on the statement's goroutine", fset.Position(g.Go))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
