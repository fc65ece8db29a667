//go:build race

package tree

func init() { raceDetectorEnabled = true }
