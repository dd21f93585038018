package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp is the provenance every result carries.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Revision   string `json:"revision"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func newStamp(workload string, seed int64, trace bool) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Revision:   revision("."),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// revision names the source tree the benchmark was built from: the git
// commit (with "+dirty" when the work tree differs) inside a repository,
// otherwise "tree:" plus a SHA-256 over the paths and contents of every Go
// source and go.mod under root, so two checkouts of the same commit stamp
// alike.
func revision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return treeHash(root)
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		rev := strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			rev += "+dirty"
		}
		return rev
	}
	return treeHash(root)
}

// treeHash is the revision of a source tree outside git.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
