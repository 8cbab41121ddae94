package compile_test

import (
	"math/rand"
	"testing"

	"eva/internal/compile"
	"eva/internal/nn"
)

// BenchmarkCompile measures one compile.Compile, default options, of the
// bench-config SqueezeNet-CIFAR and Industrial networks: every pass from the
// structure check to the key-switch digit choice. Building the program is
// outside the timed region.
func BenchmarkCompile(b *testing.B) {
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	for _, net := range []*nn.Network{nn.SqueezeNetCIFAR(nn.BenchConfig()), nn.Industrial(nn.BenchConfig())} {
		prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rand.New(rand.NewSource(1))))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(net.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := compile.Compile(prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				compile.ReleasePlan(res)
			}
		})
	}
}
