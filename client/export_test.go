package client

// RolePassesForTest reports how many times a caller of c has handed the
// reader role on to another caller still waiting for its answer.
func RolePassesForTest(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.passes
}
