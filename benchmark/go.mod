module edgepulse/benchmark

go 1.22

require edgepulse v0.0.0

replace edgepulse => ../
