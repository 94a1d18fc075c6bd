package proof

// CheckHinted is the hinted kernel without CheckTrace's fallback to the
// backward check, for the external tests.
var CheckHinted = checkHinted
