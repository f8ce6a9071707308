//go:build race

package perfcase

const raceEnabled = true
