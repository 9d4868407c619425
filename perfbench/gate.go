package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/sim"
)

// goldenTolC is the golden corpus's own tolerance on pinned
// temperatures.
const goldenTolC = 1e-4

// goldenCase is the part of a testdata/golden case the gate replays.
type goldenCase struct {
	Name     string            `json:"name"`
	Kind     string            `json:"kind"`
	Scenario json.RawMessage   `json:"scenario"`
	Sweep    []json.RawMessage `json:"sweep"`
	Expect   struct {
		PeakC float64 `json:"peak_c"`
		AvgC  float64 `json:"avg_c"`
	} `json:"expect"`
}

// gate replays the golden corpus's transient and transient-sweep cases
// through /v1/simulate on r and checks their peak and time-averaged
// peak temperatures. It reads the corpus relative to the working
// directory, which is the repository root.
func (e *env) gate(r *replica) error {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		return err
	}
	cases := 0
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var c goldenCase
		if err := json.Unmarshal(raw, &c); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		scenarios := c.Sweep
		switch c.Kind {
		case "transient":
			scenarios = []json.RawMessage{c.Scenario}
		case "transient-sweep":
		default:
			continue
		}
		peak, avgSum := math.Inf(-1), 0.0
		for _, sc := range scenarios {
			out, _, err := e.post(r.url+"/v1/simulate", "simulate", sc)
			if err != nil {
				return fmt.Errorf("golden %s: %w", c.Name, err)
			}
			var resp struct{ Metrics *sim.Metrics }
			if err := json.Unmarshal(out, &resp); err != nil || resp.Metrics == nil || len(resp.Metrics.Series) == 0 {
				return fmt.Errorf("golden %s: response carries no recorded series", c.Name)
			}
			peak = math.Max(peak, resp.Metrics.PeakTempC)
			sum := 0.0
			for _, s := range resp.Metrics.Series {
				sum += s.PeakC
			}
			avgSum += sum / float64(len(resp.Metrics.Series))
		}
		avg := avgSum / float64(len(scenarios))
		if math.Abs(peak-c.Expect.PeakC) > goldenTolC || math.Abs(avg-c.Expect.AvgC) > goldenTolC {
			return fmt.Errorf("golden %s: peak %.6f avg %.6f °C, want %.6f %.6f",
				c.Name, peak, avg, c.Expect.PeakC, c.Expect.AvgC)
		}
		cases++
	}
	if cases == 0 {
		return fmt.Errorf("no transient golden cases under testdata/golden (run from the repository root)")
	}
	return nil
}
