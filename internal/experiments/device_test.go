package experiments

import "testing"

// TestTable7DeviceHopGolden pins what the server-to-handset hop of
// Table VII ships. The byte counts repeat exactly from run to run, so a
// change to the handset's codec, its restore path or the migrate message
// shows up here rather than as a quietly different table.
func TestTable7DeviceHopGolden(t *testing.T) {
	row, c, err := table7(764)
	if err != nil {
		t.Fatal(err)
	}
	if row.StateBytes != 187 || row.ClassBytes != 804 {
		t.Errorf("device hop shipped state/class = %d/%d B, want 187/804", row.StateBytes, row.ClassBytes)
	}
	if row.Found != 4 {
		t.Errorf("found %d beach photos on the device, want 4", row.Found)
	}
	if c.Nodes[2].Agent != nil {
		t.Error("the handset has a tool agent; §IV.D's JamVM has none")
	}
}
