include Runtime.Icode
