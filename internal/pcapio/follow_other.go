//go:build !linux

package pcapio

import (
	"context"
	"time"
)

// watcher has no implementation off Linux: newWatcher returns nil and a
// follow reader polls.
type watcher struct{}

func newWatcher(context.Context, string) *watcher { return nil }

func (*watcher) wait(context.Context, time.Duration) (bool, error) { return false, nil }

func (*watcher) close() error { return nil }
