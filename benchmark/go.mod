module lmc/benchmark

go 1.22

require lmc v0.0.0

replace lmc => ../
