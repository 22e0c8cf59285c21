package eval

import (
	"math"
	"sort"
)

// BinRMSE is one point of the Figure 2/3 curves: the root-mean-squared
// prediction error over test propagations whose actual spread falls in
// the bin.
type BinRMSE struct {
	// BinLow is the inclusive lower edge of the bin on actual spread.
	BinLow int
	// Count is the number of test propagations in the bin.
	Count int
	// RMSE is the root mean squared error of predicted vs actual spread.
	RMSE float64
}

// ScatterPoint pairs a prediction with its ground truth (Figure 2(b)).
type ScatterPoint struct {
	Actual    int
	Predicted float64
}

// CapturePoint is one point of the Figure 4 curves: the fraction of test
// propagations predicted within AbsError of their actual spread.
type CapturePoint struct {
	AbsError int
	Ratio    float64
}

// PredictionReport is the full per-method output of the spread-prediction
// protocol.
type PredictionReport struct {
	Method  string
	Bins    []BinRMSE
	Scatter []ScatterPoint
	Capture []CapturePoint
	// OverallRMSE aggregates all test cases in one number.
	OverallRMSE float64
	// MeanAbsError aggregates the absolute errors.
	MeanAbsError float64
}

// RunSpreadPrediction executes Experiment 2 of Section 3 (also used for
// Figures 3 and 4): for every test propagation, predict the spread of its
// initiator set with each method and compare against the actual
// propagation size.
func RunSpreadPrediction(env *Env, predictors []Predictor, binWidth int, errGrid []int) []PredictionReport {
	reports := make([]PredictionReport, len(predictors))
	for i, p := range predictors {
		reports[i] = predictOne(env, p, binWidth, errGrid)
	}
	return reports
}

func predictOne(env *Env, p Predictor, binWidth int, errGrid []int) PredictionReport {
	rep := PredictionReport{Method: p.Name}
	type binAcc struct {
		sumSq float64
		count int
	}
	bins := map[int]*binAcc{}
	absErrs := make([]float64, 0, len(env.GroundTruth))
	sumSq := 0.0
	for _, tc := range env.GroundTruth {
		pred := p.Predict(tc.Initiators)
		rep.Scatter = append(rep.Scatter, ScatterPoint{Actual: tc.Actual, Predicted: pred})
		err := pred - float64(tc.Actual)
		sumSq += err * err
		absErrs = append(absErrs, math.Abs(err))
		bin := (tc.Actual / binWidth) * binWidth
		acc := bins[bin]
		if acc == nil {
			acc = &binAcc{}
			bins[bin] = acc
		}
		acc.sumSq += err * err
		acc.count++
	}
	n := len(env.GroundTruth)
	if n == 0 {
		return rep
	}
	rep.OverallRMSE = math.Sqrt(sumSq / float64(n))
	meanAbs := 0.0
	for _, e := range absErrs {
		meanAbs += e
	}
	rep.MeanAbsError = meanAbs / float64(n)

	lows := make([]int, 0, len(bins))
	for low := range bins {
		lows = append(lows, low)
	}
	sort.Ints(lows)
	for _, low := range lows {
		acc := bins[low]
		rep.Bins = append(rep.Bins, BinRMSE{
			BinLow: low,
			Count:  acc.count,
			RMSE:   math.Sqrt(acc.sumSq / float64(acc.count)),
		})
	}

	sort.Float64s(absErrs)
	for _, e := range errGrid {
		idx := sort.SearchFloat64s(absErrs, float64(e)+1e-9)
		rep.Capture = append(rep.Capture, CapturePoint{
			AbsError: e,
			Ratio:    float64(idx) / float64(n),
		})
	}
	return rep
}
