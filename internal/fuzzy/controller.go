package fuzzy

import "fmt"

// Controller is the LC_FUZZY run-time thermal controller of [15]: every
// control period it reads the maximum junction temperature and the mean
// core utilization and emits a coolant flow setting and a DVFS setting,
// both normalised to [0, 1] (0 = minimum flow / deepest throttle,
// 1 = maximum flow / full speed).
//
// The rule base encodes the paper's policy: cool the chip just enough —
// push flow up only when temperature approaches the threshold, keep
// frequency high unless temperature is critical, and drop flow to the
// minimum when the system idles (avoiding the "wasted energy for
// over-cooling when the system is under-utilized" the conclusions call
// out).
type Controller struct {
	eng *Engine
	// ThresholdC is the hot-spot threshold (85 °C in the paper).
	ThresholdC float64
}

// NewController builds the controller for a given threshold temperature.
func NewController(thresholdC float64) (*Controller, error) {
	tempTerms, err := temperatureTerms(thresholdC)
	if err != nil {
		return nil, err
	}
	temp := &Variable{Name: "temp", Min: 20, Max: thresholdC + 25, Terms: tempTerms[:]}
	util := &Variable{
		Name: "util", Min: 0, Max: 1,
		Terms: []MF{
			Trap("low", 0, 0, 0.15, 0.4),
			Tri("medium", 0.25, 0.5, 0.75),
			Trap("high", 0.6, 0.8, 1, 1),
		},
	}
	flow := &Variable{
		Name: "flow", Min: 0, Max: 1,
		Terms: []MF{
			Trap("min", 0, 0, 0.05, 0.25),
			Tri("low", 0.1, 0.3, 0.5),
			Tri("medium", 0.35, 0.55, 0.75),
			Tri("high", 0.6, 0.8, 0.95),
			Trap("max", 0.85, 0.97, 1, 1),
		},
	}
	vf := &Variable{
		Name: "vf", Min: 0, Max: 1,
		Terms: []MF{
			Trap("throttle", 0, 0, 0.15, 0.35),
			Tri("reduced", 0.25, 0.5, 0.75),
			Trap("full", 0.65, 0.85, 1, 1),
		},
	}
	rules := []Rule{
		// Idle and cool: minimum cooling, full speed.
		{If: []Cond{{"temp", "cold"}, {"util", "low"}}, Then: []Assign{{"flow", "min"}, {"vf", "full"}}},
		{If: []Cond{{"temp", "cold"}, {"util", "medium"}}, Then: []Assign{{"flow", "min"}, {"vf", "full"}}},
		{If: []Cond{{"temp", "cold"}, {"util", "high"}}, Then: []Assign{{"flow", "low"}, {"vf", "full"}}},
		// Warming up: stay lean — the stack has thermal headroom, and
		// over-cooling here is exactly the waste the paper attacks.
		{If: []Cond{{"temp", "warm"}, {"util", "low"}}, Then: []Assign{{"flow", "min"}, {"vf", "full"}}},
		{If: []Cond{{"temp", "warm"}, {"util", "medium"}}, Then: []Assign{{"flow", "low"}, {"vf", "full"}}},
		{If: []Cond{{"temp", "warm"}, {"util", "high"}}, Then: []Assign{{"flow", "medium"}, {"vf", "full"}}},
		// Hot: spend pump energy before performance.
		{If: []Cond{{"temp", "hot"}, {"util", "low"}}, Then: []Assign{{"flow", "medium"}, {"vf", "full"}}},
		{If: []Cond{{"temp", "hot"}, {"util", "medium"}}, Then: []Assign{{"flow", "high"}, {"vf", "full"}}},
		{If: []Cond{{"temp", "hot"}, {"util", "high"}}, Then: []Assign{{"flow", "max"}, {"vf", "full"}}},
		// Critical: everything at once.
		{If: []Cond{{"temp", "critical"}, {"util", "low"}}, Then: []Assign{{"flow", "max"}, {"vf", "reduced"}}},
		{If: []Cond{{"temp", "critical"}, {"util", "medium"}}, Then: []Assign{{"flow", "max"}, {"vf", "throttle"}}},
		{If: []Cond{{"temp", "critical"}, {"util", "high"}}, Then: []Assign{{"flow", "max"}, {"vf", "throttle"}}},
	}
	eng, err := NewEngine([]*Variable{temp, util}, []*Variable{flow, vf}, rules)
	if err != nil {
		return nil, err
	}
	return &Controller{eng: eng, ThresholdC: thresholdC}, nil
}

// CheckThreshold reports whether NewController accepts thresholdC. It
// builds only the threshold-dependent temperature terms, not the rule
// base or the inference engine, and allocates nothing when it accepts,
// so request validation can afford to call it.
func CheckThreshold(thresholdC float64) error {
	_, err := temperatureTerms(thresholdC)
	return err
}

// temperatureTerms returns the temperature input's membership functions
// for a threshold, checked: they are the only part of the controller
// that depends on the threshold, so the only part that can reject one.
// A threshold that passes the plausibility bounds can still fail the
// shoulder ordering: a low one crosses the "cold" shoulders.
func temperatureTerms(th float64) ([4]MF, error) {
	if th <= 30 || th >= 120 {
		return [4]MF{}, fmt.Errorf("fuzzy: implausible threshold %v °C", th)
	}
	terms := [4]MF{
		Trap("cold", 20, 20, th-35, th-25),
		Tri("warm", th-35, th-20, th-8),
		Tri("hot", th-16, th-8, th),
		Trap("critical", th-5, th, th+25, th+25),
	}
	for _, t := range terms {
		if err := t.Validate(); err != nil {
			return [4]MF{}, fmt.Errorf("fuzzy: threshold %v °C: %w", th, err)
		}
	}
	return terms, nil
}

// Output is the crisp controller decision.
type Output struct {
	// FlowFrac maps to the pump range: 0 = minimum, 1 = maximum flow.
	FlowFrac float64
	// VFFrac maps to the DVFS table: 1 = top level, 0 = deepest level.
	VFFrac float64
}

// Update runs one control evaluation.
func (c *Controller) Update(maxTempC, meanUtil float64) (Output, error) {
	out, err := c.eng.Infer(map[string]float64{"temp": maxTempC, "util": meanUtil})
	if err != nil {
		return Output{}, err
	}
	return Output{FlowFrac: out["flow"], VFFrac: out["vf"]}, nil
}

// SugenoController is the inference-method ablation of the LC_FUZZY
// controller: the same linguistic inputs and rule base, but zero-order
// Sugeno consequents (one singleton per Mamdani output term, placed at
// the term's plateau centre) and weighted-average defuzzification.
type SugenoController struct {
	eng *SugenoEngine
	// ThresholdC is the hot-spot threshold.
	ThresholdC float64
}

// NewSugenoController builds the ablation controller for a threshold.
func NewSugenoController(thresholdC float64) (*SugenoController, error) {
	c, err := NewController(thresholdC) // reuse validation + variables
	if err != nil {
		return nil, err
	}
	inputs := []*Variable{c.eng.inputs["temp"], c.eng.inputs["util"]}
	// Singleton per output term at the membership plateau centre.
	singles := map[string]map[string]float64{}
	for name, v := range c.eng.outputs {
		terms := map[string]float64{}
		for _, t := range v.Terms {
			terms[t.Name] = (t.B + t.C) / 2
		}
		singles[name] = terms
	}
	eng, err := NewSugenoEngine(inputs, singles, c.eng.rules)
	if err != nil {
		return nil, err
	}
	return &SugenoController{eng: eng, ThresholdC: thresholdC}, nil
}

// Update runs one control evaluation.
func (c *SugenoController) Update(maxTempC, meanUtil float64) (Output, error) {
	out, err := c.eng.Infer(map[string]float64{"temp": maxTempC, "util": meanUtil})
	if err != nil {
		return Output{}, err
	}
	return Output{FlowFrac: out["flow"], VFFrac: out["vf"]}, nil
}
