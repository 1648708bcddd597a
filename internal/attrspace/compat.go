package attrspace

import "context"

// The spellings Client had before every operation took a scope, kept
// because the benchmark module (bench/) still calls them. Each is one
// delegation to the scoped operation at Local. No other non-test code
// calls them; a change that moves bench/ off them deletes this file.

// Put is PutAt at Local without a ctx or the seq.
//
// Deprecated: use PutAt.
func (c *Client) Put(attribute, value string) error {
	return dropSeq(c.PutAt(context.Background(), Local, attribute, value))
}

// PutBatch is PutBatchAt at Local without a ctx or the seq.
//
// Deprecated: use PutBatchAt.
func (c *Client) PutBatch(pairs []KV) error {
	return dropSeq(c.PutBatchAt(context.Background(), Local, pairs))
}

// Snapshot is SnapshotAt at Local without a ctx.
//
// Deprecated: use SnapshotAt.
func (c *Client) Snapshot() (map[string]string, error) {
	return c.SnapshotAt(context.Background(), Local)
}

// PutV is PutAt at Local.
//
// Deprecated: use PutAt.
func (c *Client) PutV(ctx context.Context, attribute, value string) (uint64, error) {
	return c.PutAt(ctx, Local, attribute, value)
}

// PutBatchV is PutBatchAt at Local.
//
// Deprecated: use PutBatchAt.
func (c *Client) PutBatchV(ctx context.Context, pairs []KV) (uint64, error) {
	return c.PutBatchAt(ctx, Local, pairs)
}

// GetV is GetAt at Local.
//
// Deprecated: use GetAt.
func (c *Client) GetV(ctx context.Context, attribute string) (string, uint64, error) {
	return c.GetAt(ctx, Local, attribute)
}

// TryGetV is TryGetAt at Local.
//
// Deprecated: use TryGetAt.
func (c *Client) TryGetV(ctx context.Context, attribute string) (string, uint64, error) {
	return c.TryGetAt(ctx, Local, attribute)
}

func dropSeq(_ uint64, err error) error { return err }
