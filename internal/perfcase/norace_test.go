//go:build !race

package perfcase

const raceEnabled = false
