package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// revision names the code under test: the git revision when the checkout
// is a repository, else a hash of its Go sources and module files.
func revision() string {
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(p)
		if err == nil {
			h.Write([]byte(p))
			h.Write(b)
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
