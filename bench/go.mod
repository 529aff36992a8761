module bandana/bench

go 1.24

require bandana v0.0.0

replace bandana => ../
