module equitruss/benchmark

go 1.22

require equitruss v0.0.0

replace equitruss => ../
