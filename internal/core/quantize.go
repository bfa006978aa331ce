package core

import (
	"math"

	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
)

// QuantCalibSamples is the default number of training inputs fed
// through the float network during scale calibration. The calibration
// sets in this repo are synthetic and well-mixed, so a few dozen
// samples pin the activation ranges.
const QuantCalibSamples = 32

// Quantize builds the scaled-int16 inference fast path for the trained
// model: it calibrates per-layer activation scales on a slice of the
// training set, quantizes conv/FC weights per output channel, evaluates
// the quantized network on the test set and records the top-1 accuracy
// delta against the float path.
//
// The delta is surfaced as the stable gauge quant.accuracy_delta at a
// "quantize" telemetry boundary, so the health-gate rule engine can
// enforce quant.accuracy_delta.last <= eps (the determinism matrix's
// sim-int16 row does). The model's Precision flips to Int16 so
// downstream simulation (nna compute-cycle model, pipeline scheduler)
// picks up the denser MAC arrays.
func (m *TrainedModel) Quantize(ds *data.Dataset, cfg nn.CalibConfig) float64 {
	n := QuantCalibSamples
	if n > len(ds.TrainX) {
		n = len(ds.TrainX)
	}
	m.QNet = nn.QuantizeNetwork(m.Net, ds.TrainX[:n], cfg)
	m.Precision = fixed.Int16
	m.QuantAccuracy = m.QNet.Accuracy(ds.TestX, ds.TestY)
	m.AccuracyDelta = math.Abs(m.Accuracy - m.QuantAccuracy)
	if m.Obs != nil {
		m.Obs.Gauge("quant.accuracy", obs.Stable).Set(m.QuantAccuracy)
		m.Obs.Gauge("quant.accuracy_delta", obs.Stable).Set(m.AccuracyDelta)
		// Calibration + requantization is a serial phase transition
		// between training and quantized inference: a telemetry boundary,
		// like the prune step.
		m.Obs.Boundary("quantize", 1)
	}
	return m.AccuracyDelta
}
