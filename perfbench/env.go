package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// describeEnv records what the results depend on: cores, GOMAXPROCS, the
// Go version, the CPU model, and the source under test. The checkout is
// not always a git repository, so the source is identified by a digest of
// its Go files and module files.
func describeEnv(c config) string {
	return fmt.Sprintf("env: workload=%s seed=%d seconds=%d trace=%v cores=%d gomaxprocs=%d conns=%d go=%s cpu=%q source_sha256=%s",
		c.workload, c.seed, int(c.seconds.Seconds()), c.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), c.conns,
		runtime.Version(), cpuModel(), sourceDigest(c.root, c.outDir))
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

// sourceDigest hashes the path and content of every .go, go.mod and
// go.sum file under root, skipping skip, in path order.
func sourceDigest(root, skip string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == skip || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
