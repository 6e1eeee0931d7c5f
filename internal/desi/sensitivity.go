package desi

import (
	"fmt"

	"dif/internal/model"
)

// Sensitivity analysis (DSN'04 §4.3 "Analyzer": "a user can easily
// assess a system's sensitivity to changes in specific parameters (e.g.,
// the reliability of a network link)"). Each probe clones the model,
// perturbs one parameter through a range of values, and re-evaluates the
// named objective on the current deployment — the "what if this link
// degrades?" question without touching the live model.

// SensitivityPoint is one perturbation outcome.
type SensitivityPoint struct {
	Value float64 // the parameter value probed
	Score float64 // objective score at that value
}

// SensitivityReport describes one parameter sweep.
type SensitivityReport struct {
	Target    string // human-readable parameter identity
	Objective string
	Baseline  float64 // score with the unperturbed model
	Points    []SensitivityPoint
}

// Range returns the spread (max−min) of the probed scores — a direct
// sensitivity measure: 0 means the objective does not care about this
// parameter.
func (r SensitivityReport) Range() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	min, max := r.Points[0].Score, r.Points[0].Score
	for _, p := range r.Points[1:] {
		if p.Score < min {
			min = p.Score
		}
		if p.Score > max {
			max = p.Score
		}
	}
	return max - min
}

// SensitivityToLink sweeps a physical link's parameter through the given
// values and reports the objective at each.
func (c *Controller) SensitivityToLink(a, b model.HostID, param string, values []float64, objectiveName string) (SensitivityReport, error) {
	return c.sensitivity(
		fmt.Sprintf("link %s-%s %s", a, b, param),
		objectiveName, values,
		func(m *model.Modifier, v float64) error { return m.SetLinkParam(a, b, param, v) })
}

// SensitivityToInteraction sweeps a logical link's parameter.
func (c *Controller) SensitivityToInteraction(a, b model.ComponentID, param string, values []float64, objectiveName string) (SensitivityReport, error) {
	return c.sensitivity(
		fmt.Sprintf("interaction %s-%s %s", a, b, param),
		objectiveName, values,
		func(m *model.Modifier, v float64) error { return m.SetInteractionParam(a, b, param, v) })
}

// SensitivityToHost sweeps a host parameter.
func (c *Controller) SensitivityToHost(h model.HostID, param string, values []float64, objectiveName string) (SensitivityReport, error) {
	return c.sensitivity(
		fmt.Sprintf("host %s %s", h, param),
		objectiveName, values,
		func(m *model.Modifier, v float64) error { return m.SetHostParam(h, param, v) })
}

func (c *Controller) sensitivity(target, objectiveName string, values []float64,
	perturb func(*model.Modifier, float64) error) (SensitivityReport, error) {
	sd := c.model.System()
	if sd.System == nil {
		return SensitivityReport{}, fmt.Errorf("desi: no system loaded")
	}
	q, err := c.Objective(objectiveName)
	if err != nil {
		return SensitivityReport{}, err
	}
	rep := SensitivityReport{
		Target:    target,
		Objective: objectiveName,
		Baseline:  q.Quantify(sd.System, sd.Deployment),
		Points:    make([]SensitivityPoint, 0, len(values)),
	}
	for _, v := range values {
		probe := sd.System.Clone()
		if err := perturb(model.NewModifier(probe), v); err != nil {
			return SensitivityReport{}, fmt.Errorf("desi sensitivity: %w", err)
		}
		rep.Points = append(rep.Points, SensitivityPoint{
			Value: v,
			Score: q.Quantify(probe, sd.Deployment),
		})
	}
	return rep, nil
}
