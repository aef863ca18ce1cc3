module invalidb/benchmark

go 1.22

require invalidb v0.0.0

replace invalidb => ../
