package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	for kind, list := range map[int][]struct{ Name, Unit string }{endToEnd: bf.EndToEnd, perLayer: bf.PerLayer} {
		var got, want []string
		for _, m := range list {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, m := range metricDefs {
			if m.kind == kind {
				want = append(want, m.name+" "+m.unit)
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("metric kind %d: BENCHMARK.json %v, program %v", kind, got, want)
		}
	}
}

// A short run of each workload, untraced and traced, must pass its checks
// and guards and print every metric with its unit; the result object must
// carry exactly the metrics BENCHMARK.json names for that mode.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the full deployment")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", trace, "--span-dir", dir}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed uint64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("result metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				printed := map[string]string{}
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) >= 3 {
						printed[f[0]] = f[2]
					}
				}
				for _, m := range metricDefs {
					if m.kind == perLayer && trace == "0" {
						continue
					}
					if printed[m.name] != m.unit {
						t.Errorf("metric %s not printed with unit %s", m.name, m.unit)
					}
				}
				if trace == "1" {
					if _, err := os.Stat(filepath.Join(dir, w.name+".csv")); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

func TestCheckerRejectsCorruptAndCrossKeyValues(t *testing.T) {
	seqs := make(writerSeqs, numWriters)
	seqs[1].Store(5)
	const key = 77
	good := stamp(make([]byte, valueSize), key, 1, 5)
	if err := checkValue(key, good, seqs); err != nil {
		t.Fatalf("intact stamp rejected: %v", err)
	}
	pop := make([]byte, valueSize)
	for j := range pop {
		pop[j] = populated(key, j)
	}
	if err := checkValue(key, pop, seqs); err != nil {
		t.Fatalf("populated value rejected: %v", err)
	}

	bad := map[string][]byte{
		"stamp of another key": stamp(make([]byte, valueSize), key+1, 1, 5),
		"populated value of another key": func() []byte {
			v := make([]byte, valueSize)
			for j := range v {
				v[j] = populated(key+1, j)
			}
			return v
		}(),
		"sequence never issued": stamp(make([]byte, valueSize), key, 1, 6),
		"unknown writer":        stamp(make([]byte, valueSize), key, numWriters, 1),
		"short value":           good[:valueSize-1],
		"empty value":           nil,
	}
	for i := 0; i < valueSize; i++ {
		v := append([]byte(nil), good...)
		v[i] ^= 0x10
		bad[fmt.Sprintf("byte %d flipped", i)] = v
	}
	for name, v := range bad {
		if err := checkValue(key, v, seqs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The end-of-run check must catch a cross-key value planted in a hot key of
// a live deployment.
func TestConvergenceCheckCatchesCrossKeyValue(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the full deployment")
	}
	d, err := deploy(core.SC)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	seqs := make(writerSeqs, numWriters)
	if err := converge(d, seqs, time.Second); err != nil {
		t.Fatalf("fresh deployment: %v", err)
	}
	seqs[0].Store(1)
	if err := d.client.Put(1, 3, stamp(make([]byte, valueSize), 4, 0, 1)); err != nil {
		t.Fatal(err)
	}
	err = converge(d, seqs, time.Second)
	if err == nil || !strings.Contains(err.Error(), "stamp of key 4") {
		t.Fatalf("cross-key value not reported: %v", err)
	}
}
