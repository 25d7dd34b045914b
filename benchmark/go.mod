module dynatune/benchmark

go 1.24.0

require dynatune v0.0.0

replace dynatune => ../
