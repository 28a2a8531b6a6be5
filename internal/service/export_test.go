package service

// RaceEnabled exposes raceEnabled to the external service_test package.
const RaceEnabled = raceEnabled
