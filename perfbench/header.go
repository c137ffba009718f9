package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// header records what a run measured on: toolchain, CPUs, seeds and the
// code size of every internal package, so a change that deletes code
// reports its size next to its numbers.
type header struct {
	Workload   string         `json:"workload"`
	Go         string         `json:"go"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       int64          `json:"seed"`
	ChurnSeed  int64          `json:"churn_seed"`
	Nodes      int            `json:"nodes"`
	Edges      int            `json:"edges"`
	Rounds     int            `json:"rounds"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	LOC        map[string]int `json:"loc"`
	LOCTotal   int            `json:"loc_total"`
}

func newHeader(cfg config) header {
	h := header{
		Workload:   cfg.workload,
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		ChurnSeed:  cfg.churnSeed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		LOC:        map[string]int{},
	}
	files, _ := filepath.Glob(filepath.Join(cfg.root, "internal", "*", "*.go"))
	sort.Strings(files)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		n := codeLines(f)
		h.LOC[filepath.Base(filepath.Dir(f))] += n
		h.LOCTotal += n
	}
	return h
}

// codeLines counts the lines of a Go file that are neither blank nor
// comment-only.
func codeLines(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		l := strings.TrimSpace(sc.Text())
		if l != "" && !strings.HasPrefix(l, "//") {
			n++
		}
	}
	return n
}
