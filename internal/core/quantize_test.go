package core

import (
	"testing"

	"learn2scale/internal/fixed"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
)

// TestQuantizeAccuracyDeltaAllSchemes pins the PR's acceptance gate:
// quantized top-1 stays within 0.02 of the float top-1 for every
// parallelization scheme. This is the same epsilon the health rule of
// the determinism matrix's sim-int16 row enforces.
func TestQuantizeAccuracyDeltaAllSchemes(t *testing.T) {
	const eps = 0.02
	ds := tinyData()
	for _, scheme := range []Scheme{Baseline, StructureLevel, SS, SSMask} {
		opt := tinyTrainOptions(4)
		opt.SGD.Epochs = 8
		opt.SparsifyEpochs = 3
		opt.FinetuneEpochs = 3
		m, err := Train(scheme, tinySpec(), ds, opt)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		delta := m.Quantize(ds, nn.CalibConfig{Method: fixed.CalibMaxAbs})
		t.Logf("%v: float %.3f quant %.3f delta %.4f", scheme, m.Accuracy, m.QuantAccuracy, delta)
		if delta > eps {
			t.Errorf("%v: accuracy delta %.4f > %.2f (float %.3f, quant %.3f)",
				scheme, delta, eps, m.Accuracy, m.QuantAccuracy)
		}
		if m.Precision != fixed.Int16 {
			t.Errorf("%v: precision %v after Quantize, want int16", scheme, m.Precision)
		}
		if m.QNet == nil {
			t.Errorf("%v: QNet nil after Quantize", scheme)
		}
	}
}

// TestQuantizeObs checks the calibration boundary telemetry: Quantize
// must set the stable quant.accuracy_delta gauge (the health-gate
// input) and mark a "quantize" boundary.
func TestQuantizeObs(t *testing.T) {
	ds := tinyData()
	opt := tinyTrainOptions(2)
	opt.SGD.Epochs = 4
	reg := obs.New()
	opt.Obs = reg
	m, err := Train(Baseline, tinySpec(), ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	delta := m.Quantize(ds, nn.CalibConfig{Method: fixed.CalibPercentile, Percentile: 99.9})
	if got := reg.Gauge("quant.accuracy_delta", obs.Stable).Value(); got != delta {
		t.Errorf("gauge quant.accuracy_delta = %v, want %v", got, delta)
	}
	if got := reg.Gauge("quant.accuracy", obs.Stable).Value(); got != m.QuantAccuracy {
		t.Errorf("gauge quant.accuracy = %v, want %v", got, m.QuantAccuracy)
	}
}
