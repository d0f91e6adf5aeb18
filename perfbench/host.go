package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostStamp describes the machine and the code a result set comes from,
// as one JSON object.
func hostStamp() string {
	stamp := struct {
		Nproc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		CPU        string `json:"cpu"`
		Go         string `json:"go"`
		Kernel     string `json:"kernel"`
		Commit     string `json:"commit"`
		Source     string `json:"source_sha256"`
		Net        string `json:"net"`
	}{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Commit:     gitCommit(),
		Source:     sourceDigest("."),
		Net:        "loopback",
	}
	b, _ := json.Marshal(stamp) // a struct of strings and ints always marshals
	return string(b)
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git in the current directory, if there is
// one; a source checkout without git history reports "none".
func gitCommit() string {
	head := strings.TrimSpace(readFile(filepath.Join(".git", "HEAD")))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		if head == "" {
			return "none"
		}
		return head
	}
	if c := strings.TrimSpace(readFile(filepath.Join(".git", ref))); c != "" {
		return c
	}
	for _, line := range strings.Split(readFile(filepath.Join(".git", "packed-refs")), "\n") {
		if c, r, ok := strings.Cut(line, " "); ok && r == ref {
			return c
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result can be matched to its code without git.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
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
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
