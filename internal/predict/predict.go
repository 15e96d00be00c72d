// Package predict implements the production-rate predictors consumers
// use to choose latching slots.
//
// The paper's consumers use a window-h moving average (§V-C) "for the
// simplicity of its calculation, imposing very low overhead", and name
// a Kalman filter as future work (§VIII). This package provides both,
// plus an EWMA middle ground, behind one interface so the experiment
// harness can ablate the choice.
package predict

import (
	"fmt"
	"math"
)

// Predictor estimates the next inter-invocation production rate from
// the rates observed at previous invocations. Implementations are
// single-goroutine; each consumer owns its own predictor.
type Predictor interface {
	// Observe records the rate (items/s) measured over the interval
	// ending at the current invocation.
	Observe(rate float64)
	// Predict returns the estimated rate for the upcoming interval.
	// Before any observation it returns 0.
	Predict() float64
	// Reset clears all learned state.
	Reset()
	// Name identifies the predictor in reports.
	Name() string
}

// MovingAverage is the paper's estimator:
//
//	r̂(i+1) = (Σ_{j=i-h+1..i} r_j) / h
//
// using however many observations exist until the window fills.
type MovingAverage struct {
	window []float64
	next   int
	count  int
	sum    float64
}

// NewMovingAverage returns a moving average over the last h rates.
// The paper leaves h free; h must be ≥ 1.
func NewMovingAverage(h int) *MovingAverage {
	if h < 1 {
		panic(fmt.Sprintf("predict: invalid moving-average window %d", h))
	}
	return &MovingAverage{window: make([]float64, h)}
}

// Observe implements Predictor.
func (m *MovingAverage) Observe(rate float64) {
	if m.count == len(m.window) {
		m.sum -= m.window[m.next]
	} else {
		m.count++
	}
	m.window[m.next] = rate
	m.sum += rate
	m.next = (m.next + 1) % len(m.window)
}

// Predict implements Predictor.
func (m *MovingAverage) Predict() float64 {
	if m.count == 0 {
		return 0
	}
	// Recompute from the window when the running sum has drifted badly
	// (it cannot here — rates are bounded — but guard against NaN).
	if math.IsNaN(m.sum) {
		m.sum = 0
		for i := 0; i < m.count; i++ {
			m.sum += m.window[i]
		}
	}
	return m.sum / float64(m.count)
}

// Reset implements Predictor.
func (m *MovingAverage) Reset() {
	for i := range m.window {
		m.window[i] = 0
	}
	m.next, m.count, m.sum = 0, 0, 0
}

// Name implements Predictor.
func (m *MovingAverage) Name() string { return fmt.Sprintf("ma(%d)", len(m.window)) }

// EWMA is an exponentially weighted moving average with smoothing
// factor alpha in (0, 1]: higher alpha reacts faster.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA predictor.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("predict: invalid EWMA alpha %v", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe implements Predictor.
func (e *EWMA) Observe(rate float64) {
	if !e.primed {
		e.value = rate
		e.primed = true
		return
	}
	e.value = e.alpha*rate + (1-e.alpha)*e.value
}

// Predict implements Predictor.
func (e *EWMA) Predict() float64 {
	if !e.primed {
		return 0
	}
	return e.value
}

// Reset implements Predictor.
func (e *EWMA) Reset() { e.value, e.primed = 0, false }

// Name implements Predictor.
func (e *EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", e.alpha) }

// Kalman is a scalar Kalman filter over a random-walk rate model —
// the paper's stated future-work estimator (§VIII):
//
//	state:       x_{k+1} = x_k + w,  w ~ N(0, Q)
//	measurement: z_k     = x_k + v,  v ~ N(0, R)
//
// Q tunes how fast the filter believes the true rate drifts; R is the
// measurement noise of a single inter-invocation rate sample.
type Kalman struct {
	q, r   float64
	x      float64 // state estimate
	p      float64 // estimate covariance
	primed bool
}

// NewKalman returns a scalar Kalman-filter predictor with process
// variance q and measurement variance r (both > 0).
func NewKalman(q, r float64) *Kalman {
	if q <= 0 || r <= 0 {
		panic(fmt.Sprintf("predict: invalid Kalman parameters q=%v r=%v", q, r))
	}
	return &Kalman{q: q, r: r}
}

// Observe implements Predictor.
func (k *Kalman) Observe(rate float64) {
	if !k.primed {
		k.x = rate
		k.p = k.r
		k.primed = true
		return
	}
	// Predict step: random walk leaves x unchanged, inflates covariance.
	k.p += k.q
	// Update step.
	gain := k.p / (k.p + k.r)
	k.x += gain * (rate - k.x)
	k.p *= 1 - gain
}

// Predict implements Predictor.
func (k *Kalman) Predict() float64 {
	if !k.primed {
		return 0
	}
	return k.x
}

// Reset implements Predictor.
func (k *Kalman) Reset() { k.x, k.p, k.primed = 0, 0, false }

// Name implements Predictor.
func (k *Kalman) Name() string { return fmt.Sprintf("kalman(q=%g,r=%g)", k.q, k.r) }

// Hold predicts whatever it last observed; the degenerate h=1 moving
// average, useful as an ablation baseline.
type Hold struct {
	value  float64
	primed bool
}

// NewHold returns a last-value predictor.
func NewHold() *Hold { return &Hold{} }

// Observe implements Predictor.
func (h *Hold) Observe(rate float64) { h.value, h.primed = rate, true }

// Predict implements Predictor.
func (h *Hold) Predict() float64 {
	if !h.primed {
		return 0
	}
	return h.value
}

// Reset implements Predictor.
func (h *Hold) Reset() { h.value, h.primed = 0, false }

// Name implements Predictor.
func (h *Hold) Name() string { return "hold" }

// Factory builds fresh predictor instances; each consumer needs its own.
type Factory func() Predictor

// DefaultFactory is the paper's configuration: a moving average with
// window 8.
func DefaultFactory() Predictor { return NewMovingAverage(8) }
