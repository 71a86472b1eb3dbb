package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// quantile reads the q-quantile of v by linear interpolation between
// order statistics; it returns 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// steadyQuantile reads a tail quantile of samples given in time order as
// the median of the quantiles of five consecutive parts. A stretch of
// host noise that covers a tenth of a run is enough to move the run's
// p90; it has to cover half of it to move this. Samples too few to
// split give the plain quantile.
func steadyQuantile(v []float64, q float64) float64 {
	const parts = 5
	if len(v) < 10*parts {
		return quantile(v, q)
	}
	qs := make([]float64, parts)
	for i := range qs {
		qs[i] = quantile(v[i*len(v)/parts:(i+1)*len(v)/parts], q)
	}
	return median(qs)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// micros converts a duration to microseconds as a float.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resetPeakRSS returns freed memory to the system and resets the
// resident-set high-water mark, so that peakRSSMB reports what the timed
// region needed: the set-up's products, the state of the sessions and
// the garbage between two collections — not the traces a run records
// once to verify itself, which were the peak before and made it vary by
// a quarter with the moment a collection happened to start.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
