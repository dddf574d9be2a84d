//go:build !race

package cluster

const raceBuild = false
