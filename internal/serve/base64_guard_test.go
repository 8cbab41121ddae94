package serve

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoHandWrittenBase64 keeps binary payloads on the serving tier's wire
// as []byte fields, which encoding/json writes as standard base64 by itself:
// no non-test file of serve, cluster or the eva client imports
// encoding/base64 to carry keys or ciphertexts as strings.
func TestNoHandWrittenBase64(t *testing.T) {
	checked := 0
	for _, dir := range []string{".", "../cluster", "../../eva"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			for _, imp := range file.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/base64" {
					t.Errorf("%s imports encoding/base64; carry the payload as []byte", path)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no source files found to check")
	}
}
