package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"verlog/client"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// sample is the server's cumulative cost as seen from outside the
// process: kernel accounting under /proc/<pid>, the Go runtime's memstats
// and the program's own counters over HTTP, and the journal's size on
// disk. Two samples bracket the measured script; every per-apply count is
// a difference of two.
type sample struct {
	cpuUserS, cpuSysS float64
	writeBytes        float64
	journalBytes      float64
	hwmKiB            float64
	mem               struct {
		TotalAlloc   float64
		Mallocs      float64
		NumGC        float64
		PauseTotalNs float64
		HeapInuse    float64
	}
	metrics map[string]float64 // Prometheus samples by "name" or "name{labels}"
}

func takeSample(ctx context.Context, n node, c *client.Client) (sample, error) {
	var s sample
	pid := n.pid()
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, i.e. the 12th and 13th after the name.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	s.cpuUserS, s.cpuSysS = ut/clockTick, st/clockTick

	if s.writeBytes, err = procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes:"); err != nil {
		return s, err
	}
	if s.hwmKiB, err = procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:"); err != nil {
		return s, err
	}
	fi, err := os.Stat(filepath.Join(n.dir(), "journal.jsonl"))
	if err != nil {
		return s, err
	}
	s.journalBytes = float64(fi.Size())

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url()+"/debug/vars", nil)
	if err != nil {
		return s, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return s, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	var vars struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return s, fmt.Errorf("/debug/vars: %w", err)
	}
	if err := json.Unmarshal(vars.Memstats, &s.mem); err != nil {
		return s, fmt.Errorf("/debug/vars memstats: %w", err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		return s, err
	}
	s.metrics = parseMetrics(text)
	return s, nil
}

// procField returns the first number on the line of a /proc key: value
// file that starts with key.
func procField(path, key string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// parseMetrics reads Prometheus text exposition into name -> value.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// ---- host probes ----------------------------------------------------------

// fsyncProbe times writing and fsyncing 1 MB in dir: the host's disk
// phase, reported beside the numbers it distorts.
func fsyncProbe(dir string) (time.Duration, error) {
	buf := make([]byte, 1<<20)
	name := filepath.Join(dir, "fsync.probe")
	defer os.Remove(name)
	start := time.Now()
	f, err := os.Create(name)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

var (
	probeSink [sha256.Size]byte
	probeBuf  = bytes.Repeat([]byte{1}, 4<<20) // touched once here, so the probe times hashing, not page faults
	probeSum  int
)

type probeRec struct {
	Name string
	Sal  int
	Boss *probeRec
}

// cpuProbe times a fixed piece of work shaped like the server's: about
// two thirds of it builds a 30 000-entry map of small heap records, walks
// it and JSON-encodes 3 000 of them (allocation, pointer chasing, GC
// pressure), one third hashes 4 MB. Hashing alone stays within a few
// percent when this host slows the server by a quarter; what a neighbour
// takes away is the memory system, and this mix moves about as much as the
// server does. It is sampled only between rounds, with no server running,
// and is printed beside the timings; no timing is corrected by it.
func cpuProbe() time.Duration {
	start := time.Now()
	m := make(map[string]*probeRec)
	var prev *probeRec
	for i := 0; i < 30000; i++ {
		r := &probeRec{Name: "e" + strconv.Itoa(i), Sal: i, Boss: prev}
		m[r.Name] = r
		prev = r
	}
	sum := 0
	for _, r := range m {
		sum += r.Sal
	}
	out := make([]probeRec, 0, 3000)
	for i := 0; i < 3000; i++ {
		out = append(out, probeRec{Name: "e" + strconv.Itoa(i), Sal: i})
	}
	enc, _ := json.Marshal(out) // cannot fail: plain structs
	probeSum = sum + len(enc)
	probeSink = sha256.Sum256(probeBuf)
	return time.Since(start)
}

// settle flushes the host's dirty pages and waits, so a round does not
// inherit the previous round's writeback.
func settle(d time.Duration) {
	syscall.Sync()
	time.Sleep(d)
}
