package sparse_test

import (
	"testing"

	"fsdinference/internal/model"
	"fsdinference/internal/sparse"
)

// BenchmarkSparseMulGather multiplies one Graph Challenge layer by a
// generated input batch. It sits in the external test package because the
// model generator imports sparse.
func BenchmarkSparseMulGather(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(1024, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	w := m.Layers[0]
	x := model.GenerateInputs(1024, 64, 0.2, 2)
	z := sparse.NewDense(w.Rows, 64)
	lookup := func(c int32) []float32 {
		if x.RowIsZero(int(c)) {
			return nil
		}
		return x.Row(int(c))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Zero()
		sparse.MulGatherInto(w, lookup, z)
	}
}
