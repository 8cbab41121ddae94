package compile

// CheckLowering is checkLowering for the external test package's corpus.
var CheckLowering = checkLowering
