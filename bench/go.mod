module dlinfma/bench

go 1.22

require dlinfma v0.0.0

replace dlinfma => ../
