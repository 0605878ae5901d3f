module nvref/benchmark

go 1.22

require nvref v0.0.0

replace nvref => ../
