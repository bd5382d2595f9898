module zebraconf/bench

go 1.22

require zebraconf v0.0.0

replace zebraconf => ../
