// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repository root never compile or run it. Its
// path sits below the root module's, which lets it import the
// implementation packages under internal/.
module github.com/cognitive-sim/compass/bench

go 1.23

require github.com/cognitive-sim/compass v0.0.0

replace github.com/cognitive-sim/compass => ../
